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
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time

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


class _CKernel:
    """ctypes adapter over the compiled shared object."""

    def __init__(self, lib):
        self._lib = lib
        lib.sweep.restype = ctypes.c_longlong
        lib.sweep.argtypes = [ctypes.c_void_p] * 2 \
            + [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * 25
        lib.sweep_adaptive.restype = ctypes.c_longlong
        lib.sweep_adaptive.argtypes = [ctypes.c_void_p, ctypes.c_longlong] \
            + [ctypes.c_void_p] * 26
        lib.sweep_ens.restype = ctypes.c_longlong
        lib.sweep_ens.argtypes = [ctypes.c_void_p] * 2 \
            + [ctypes.c_longlong] * 4 + [ctypes.c_void_p] * 28
        lib.eval_qf.restype = None
        lib.eval_jac.restype = None
        lib.eval_qf_batch.restype = None
        lib.eval_jac_batch.restype = None

    @staticmethod
    def _ptr(arr):
        return ctypes.c_void_p(arr.ctypes.data)

    def eval_qf(self, x, p, q, f):
        self._lib.eval_qf(self._ptr(x), self._ptr(p), self._ptr(q),
                          self._ptr(f))

    def eval_jac(self, x, p, dq, df):
        self._lib.eval_jac(self._ptr(x), self._ptr(p), self._ptr(dq),
                           self._ptr(df))

    def eval_qf_batch(self, X, P, Q, F):
        pstride = P.shape[1] if P.shape[0] > 1 else 0
        self._lib.eval_qf_batch(
            self._ptr(X), self._ptr(P), ctypes.c_longlong(X.shape[0]),
            ctypes.c_longlong(pstride), self._ptr(Q), self._ptr(F))

    def eval_jac_batch(self, X, P, DQ, DF):
        pstride = P.shape[1] if P.shape[0] > 1 else 0
        self._lib.eval_jac_batch(
            self._ptr(X), self._ptr(P), ctypes.c_longlong(X.shape[0]),
            ctypes.c_longlong(pstride), self._ptr(DQ), self._ptr(DF))

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


def _build_c_library(source, sha):
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
        return _CKernel(ctypes.CDLL(so_path))
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


def build_kernel(spec):
    """Build (or fetch from cache) the compiled C kernel for ``spec``.

    Raises :class:`KernelBuildError` when compiling, loading or the
    trial call fails; callers running under ``kernel="auto"`` then stay
    on the NumPy engine.
    """
    start = time.perf_counter()
    source = codegen.generate_c_source(spec)
    sha = _source_sha(source)
    impl = _KERNEL_MEMO.get(sha)
    if impl is None:
        impl = _build_c_library(source, sha)
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
