"""Render a :class:`~repro.kernels.registry.KernelSpec` to C source.

One spec renders to two C translation units, each compiled with the host
toolchain (``cc -O2 -shared``) and driven through ctypes (see
:mod:`repro.kernels.backends`).  The reference they are tested against
is not generated code but the NumPy engines themselves.

The sweep unit (:func:`generate_c_source`) carries seven entry points:
``eval_qf`` / ``eval_jac`` (single point), ``eval_qf_batch`` /
``eval_jac_batch`` (lock-step and collocation batches), and three
transient sweeps that march many steps per call with zero Python in
between: ``sweep`` (the fixed-step grid), ``sweep_adaptive`` (constant
forcing under the proportional local-error dt controller) and
``sweep_ens`` (the batched ``(B, n)`` lock-step ensemble over a
``(B, n, n)`` frozen-LU factor stack).  The envelope unit
(:func:`generate_envelope_source`) carries ``eval_qf`` / ``eval_jac`` and
``envelope_sweep``, which marches fixed WaMPDE envelope steps; it is built
only when an envelope march first runs compiled, so building the sweep
unit costs what it did before the envelope unit existed.

The sweeps state each part of a transient step once, as static helpers
over one ``(3, B, n)`` history ring; the serial sweeps are its
``B = 1`` case.  Each helper transcribes one piece of Python:

=================  ===================================================
``step_terms_``    ``transient.integrators.Integrator.residual_terms``
``note_alpha_``    ``SolverCore.note_parameters(alpha=...)`` behind the
                   engine's alpha-changed guard
``predict_``       ``transient.engine.extrapolate``
``push_history_``  the engine's history append (oldest entry dropped)
``refactor_``      the chord drivers' ``_refactor``, for ``B`` blocks
``enter_``         ``SolverCore.refactor_at``: the LU rebuild from
                   ``jac_meta`` on resume or re-entry
``small_update_``  ``linalg.newton.update_is_small``
``chord_solve_``   ``linalg.newton.StaleJacobianNewton.solve``
=================  ===================================================

``sweep`` and ``sweep_adaptive`` both solve each step with
``chord_solve_``; beyond the helpers ``sweep_adaptive`` holds only the
engine's adaptive error-control block, and ``sweep_ens`` only the
lock-step chord of ``transient.ensemble._EnsembleChord``.  The envelope
unit transcribes the fixed-step driver of :mod:`repro.wampde.envelope`
with its own helpers, factorising and solving through LAPACK
``dgetrf``/``dgetrs`` pointers passed in by the caller:

=====================  ===============================================
``env_residual_``      ``WarpedCollocationSystem.residual`` (one slice,
                       phase row, theta step), ``IterateEvaluation``
``env_history_``       ``WarpedCollocationSystem.fast_terms``
``env_refactor_``      ``WarpedCollocationSystem.jacobian`` with
                       ``DenseCollocationAssembler.refresh``, then LU
``env_chord_``         ``linalg.newton.StaleJacobianNewton.solve``
``env_note_``          ``SolverCore.note_parameters(h=..., omega=...)``
``env_predict_``       ``transient.engine.extrapolate``
``env_push_``          the driver's three-entry history
=====================  ===============================================

Any change to the Python above must be mirrored here.  The drift guard
is the route-parity matrix (``tests/test_route_parity.py``), which holds
the C routes to the NumPy engines' exact iteration, factorisation and
residual-evaluation counts on generated circuits and on the envelope's
oscillators, next to the equivalence tests in ``tests/test_kernels.py``.

Status codes returned by the sweep entry points:

====  =========================================================
0     ran to ``gi_end`` / ``max_accept`` / ``t_stop``
1     chord Newton hit ``max_iterations`` (factors dropped; for
      ``sweep_ens``: not every scenario converged or was rescued)
2     non-finite initial residual (factors kept, like the python path;
      serial sweeps only — ensemble rows simply fail to converge)
3     singular/non-finite Jacobian factorisation (factors dropped)
4     adaptive local-error rejection would underflow ``dt_min``
      (``sweep_adaptive`` only; the shrink is *not* committed so the
      python replay reproduces the exact failure)
5     the envelope step converged to ``omega <= 0``
      (``envelope_sweep`` only)
====  =========================================================

``envelope_sweep`` commits no part of a failing step (statuses 1, 2, 3
and 5): its registered parameters, factor metadata and counters are
restored to the step's start, so the NumPy stepper replays the step
with the NumPy route's outcome.
"""

from __future__ import annotations


def _render_c(stmts, indent, declared=None):
    pad = "    " * indent
    declared = declared if declared is not None else set()
    lines = []
    for s in stmts:
        op = s[0]
        if op == "let":
            declared.add(s[1])
            lines.append(f"{pad}double {s[1]} = {s[2]};")
        elif op == "set":
            lines.append(f"{pad}{s[1]} = {s[2]};")
        elif op == "store":
            lines.append(f"{pad}{s[1]}[{s[2]}] = {s[3]};")
        elif op == "add":
            lines.append(f"{pad}{s[1]}[{s[2]}] += {s[3]};")
        elif op == "if":
            lines.append(f"{pad}if ({s[1]}) {{")
            lines.extend(_render_c(s[2], indent + 1, declared))
            if s[3]:
                lines.append(f"{pad}}} else {{")
                lines.extend(_render_c(s[3], indent + 1, declared))
            lines.append(f"{pad}}}")
        else:  # pragma: no cover
            raise ValueError(f"unknown statement {s[0]!r}")
    return lines


_C_RUNTIME = '''

void eval_qf_batch(const double* X, const double* P, long long B,
                   long long pstride, double* Q, double* F) {
    for (long long b = 0; b < B; ++b)
        eval_qf(X + b * N, P + b * pstride, Q + b * N, F + b * N);
}

void eval_jac_batch(const double* X, const double* P, long long B,
                    long long pstride, double* DQ, double* DF) {
    for (long long b = 0; b < B; ++b)
        eval_jac(X + b * N, P + b * pstride, DQ + b * NN, DF + b * NN);
}

static int lu_factor_(double* A, long long* piv) {
    for (int k = 0; k < N; ++k) {
        double pmax = 0.0;
        int pidx = k;
        for (int i = k; i < N; ++i) {
            double a = fabs(A[i * N + k]);
            if (a > pmax) { pmax = a; pidx = i; }
        }
        if (!(pmax > 0.0) || !isfinite(pmax)) return 0;
        piv[k] = pidx;
        if (pidx != k) {
            for (int j = 0; j < N; ++j) {
                double tmp = A[k * N + j];
                A[k * N + j] = A[pidx * N + j];
                A[pidx * N + j] = tmp;
            }
        }
        double akk = A[k * N + k];
        for (int i = k + 1; i < N; ++i) {
            double lik = A[i * N + k] / akk;
            A[i * N + k] = lik;
            for (int j = k + 1; j < N; ++j)
                A[i * N + j] -= lik * A[k * N + j];
        }
    }
    return 1;
}

static void lu_solve_(const double* A, const long long* piv,
                      const double* b, double* out) {
    for (int i = 0; i < N; ++i) out[i] = b[i];
    /* lu_factor_ swaps whole rows, so later swaps also move the stored
       multipliers: apply every swap first, then forward-substitute. */
    for (int k = 0; k < N; ++k) {
        long long pidx = piv[k];
        if (pidx != k) {
            double tmp = out[k];
            out[k] = out[pidx];
            out[pidx] = tmp;
        }
    }
    for (int k = 0; k < N; ++k)
        for (int i = k + 1; i < N; ++i) out[i] -= A[i * N + k] * out[k];
    for (int i = N - 1; i >= 0; --i) {
        double acc = out[i];
        for (int j = i + 1; j < N; ++j) acc -= A[i * N + j] * out[j];
        out[i] = acc / A[i * N + i];
    }
}

static double residual_(const double* x, const double* p,
                        const double* b_row, double alpha, double beta,
                        const double* rhs, double* qv, double* fv,
                        double* rc) {
    eval_qf(x, p, qv, fv);
    double norm = 0.0;
    int bad = 0;
    for (int i = 0; i < N; ++i) {
        double fb = fv[i] - b_row[i];
        fv[i] = fb;
        double r = alpha * qv[i] + rhs[i] + beta * fb;
        rc[i] = r;
        double a = fabs(r);
        if (a != a) bad = 1;
        else if (a > norm) norm = a;
    }
    if (bad) return NAN;
    return norm;
}

/* One refactorisation of B blocks: alpha dQ + beta dF at each row of X
   (parameters P + b * pstride), LU-factorised in place.  jac_meta
   records (alpha, beta, X) once every block factorised, and the
   factorisation counts in counters[3] (NULL: the entry rebuild, which
   is not counted).  Returns 0 on a singular or non-finite block. */
static int refactor_(const double* X, const double* P, long long B,
                     long long pstride, double alpha, double beta,
                     double* A, long long* piv, double* dqs, double* dfs,
                     double* jac_meta, long long* counters) {
    for (long long b = 0; b < B; ++b) {
        double* Ab = A + b * NN;
        eval_jac(X + b * N, P + b * pstride, dqs, dfs);
        for (int k = 0; k < NN; ++k) Ab[k] = alpha * dqs[k] + beta * dfs[k];
        if (!lu_factor_(Ab, piv + b * N)) return 0;
    }
    jac_meta[0] = alpha;
    jac_meta[1] = beta;
    memcpy(jac_meta + 2, X, sizeof(double) * B * N);
    if (counters) counters[3] += 1;
    return 1;
}

/* Entry (flags = [have_factors, rebuild_on_entry]): on resume or
   re-entry, rebuild the frozen factors from the (alpha, beta, x rows)
   in jac_meta.  Returns whether factors are held. */
static int enter_(long long* flags, const double* P, long long B,
                  long long pstride, double* A, long long* piv,
                  double* jac_meta, double* X, double* dqs, double* dfs) {
    int have = flags[0] != 0;
    if (have && flags[1] != 0) {
        memcpy(X, jac_meta + 2, sizeof(double) * B * N);
        have = refactor_(X, P, B, pstride, jac_meta[0], jac_meta[1], A,
                         piv, dqs, dfs, jac_meta, NULL);
    }
    flags[1] = 0;
    return have;
}

/* Integrator.residual_terms over the (3, B, N) ring's newest hc
   entries: the weights of R(x) = alpha q(x) + RHS + beta (f(x) - b)
   and the history term RHS of each row. */
static inline void step_terms_(long long integ, const double* h_t,
                               const double* h_q, const double* h_fb,
                               long long hc, long long B, double t_new,
                               double* RHS, double* alpha,
                               double* beta) {
    long long M = B * N;
    const double* q1 = h_q + (hc - 1) * M;
    const double* fb1 = h_fb + (hc - 1) * M;
    double dt = t_new - h_t[hc - 1];
    if (integ == 1) {
        *alpha = 1.0 / dt;
        *beta = 0.5;
        for (long long k = 0; k < M; ++k)
            RHS[k] = -q1[k] / dt + 0.5 * fb1[k];
    } else if (integ == 2 && hc >= 2) {
        const double* q2 = h_q + (hc - 2) * M;
        double t1 = h_t[hc - 1];
        double t2 = h_t[hc - 2];
        *alpha = (2.0 * t_new - t1 - t2) / ((t_new - t1) * (t_new - t2));
        *beta = 1.0;
        double d1 = (t_new - t2) / ((t1 - t_new) * (t1 - t2));
        double d2 = (t_new - t1) / ((t2 - t_new) * (t2 - t1));
        for (long long k = 0; k < M; ++k) RHS[k] = d1 * q1[k] + d2 * q2[k];
    } else {
        *alpha = 1.0 / dt;
        *beta = 1.0;
        for (long long k = 0; k < M; ++k) RHS[k] = -q1[k] / dt;
    }
}

/* SolverCore.note_parameters(alpha=...) behind the engine's
   "alpha changed" guard: reg = [params_alpha, last_alpha] (nan =
   unset); a jump beyond param_rtol drops the frozen factors. */
static inline void note_alpha_(double* reg, double alpha,
                               double param_rtol, int* have) {
    if (alpha == reg[1]) return;
    double old = reg[0];
    if (old == old && fabs(alpha - old) > param_rtol * fabs(old)) *have = 0;
    reg[0] = alpha;
    reg[1] = alpha;
}

/* extrapolate: the polynomial predictor through the ring's newest
   entries (quadratic, else linear, else the last state), per row. */
static inline void predict_(const double* h_t, const double* h_x,
                            long long hc, long long B, double t_new,
                            double* X) {
    long long M = B * N;
    const double* x1 = h_x + (hc - 1) * M;
    if (hc >= 3 && h_t[0] != h_t[1] && h_t[1] != h_t[2]
            && h_t[0] != h_t[2]) {
        double ta = h_t[0], tb = h_t[1], tc = h_t[2];
        double la = (t_new - tb) * (t_new - tc) / ((ta - tb) * (ta - tc));
        double lb = (t_new - ta) * (t_new - tc) / ((tb - ta) * (tb - tc));
        double lc = (t_new - ta) * (t_new - tb) / ((tc - ta) * (tc - tb));
        for (long long k = 0; k < M; ++k)
            X[k] = la * h_x[k] + lb * h_x[M + k] + lc * h_x[2 * M + k];
    } else if (hc >= 2 && h_t[hc - 1] != h_t[hc - 2]) {
        const double* x2 = h_x + (hc - 2) * M;
        double frac = (t_new - h_t[hc - 1]) / (h_t[hc - 1] - h_t[hc - 2]);
        for (long long k = 0; k < M; ++k)
            X[k] = x1[k] + (x1[k] - x2[k]) * frac;
    } else {
        memcpy(X, x1, sizeof(double) * M);
    }
}

/* Append an accepted step to the ring (hstate[0] = occupied entries),
   dropping the oldest entry once all three are full. */
static inline void push_history_(double* h_t, double* h_x, double* h_q,
                                 double* h_fb, long long* hstate,
                                 long long B, double t_new,
                                 const double* X, const double* QV,
                                 const double* FV) {
    size_t row = sizeof(double) * B * N;
    long long M = B * N;
    long long hc = hstate[0];
    if (hc == 3) {
        memmove(h_t, h_t + 1, sizeof(double) * 2);
        memmove(h_x, h_x + M, 2 * row);
        memmove(h_q, h_q + M, 2 * row);
        memmove(h_fb, h_fb + M, 2 * row);
        hc = 2;
    }
    h_t[hc] = t_new;
    memcpy(h_x + hc * M, X, row);
    memcpy(h_q + hc * M, QV, row);
    memcpy(h_fb + hc * M, FV, row);
    hstate[0] = hc + 1;
}

/* update_is_small for one row: every |xn - xc| <= rtol max(|xn|, 1). */
static inline int small_update_(const double* xn, const double* xc,
                                double rtol) {
    for (int i = 0; i < N; ++i) {
        double m = fabs(xn[i]);
        if (m < 1.0) m = 1.0;
        if (!(fabs(xn[i] - xc[i]) <= rtol * m)) return 0;
    }
    return 1;
}

/* StaleJacobianNewton.solve from the guess in xc: chord iterations on
   the frozen factors in (A, piv), refactorising at the current iterate
   when none are held, an update goes non-finite or uphill on stale
   factors, or the residual contracts slower than `contraction`; a damped
   line search once fresh factors still go uphill.  Leaves the solution
   in xc, with q and f - b at it in qv, fv.  Returns 0, or the sweep
   status of the failure (factors dropped on 1 and 3, kept on 2). */
static long long chord_solve_(const double* p, const double* b_row,
                              double alpha, double beta, const double* rhs,
                              const double* dopts, const long long* iopts,
                              double* A, long long* piv, double* jac_meta,
                              int* have, long long* counters, double* xc,
                              double* xn, double* dxs, double* rc,
                              double* rn, double* qv, double* fv,
                              double* dqs, double* dfs) {
    double atol = dopts[0];
    double rtol = dopts[1];
    double contraction = dopts[2];
    long long maxiter = iopts[0];
    long long halvings = iopts[1];
    size_t row = sizeof(double) * N;
    double norm = residual_(xc, p, b_row, alpha, beta, rhs, qv, fv, rc);
    counters[2] += 1;
    if (norm <= atol) return 0;
    if (!isfinite(norm)) return 2;
    int fresh = 0;
    if (!*have) {
        if (!refactor_(xc, p, 1, 0, alpha, beta, A, piv, dqs, dfs,
                       jac_meta, counters))
            goto singular;
        *have = 1;
        fresh = 1;
    }
    for (long long itn = 0; itn < maxiter;) {
        itn += 1;
        counters[1] += 1;
        lu_solve_(A, piv, rc, dxs);
        int ok = 1;
        for (int i = 0; i < N; ++i)
            if (!isfinite(dxs[i])) ok = 0;
        if (!ok) {
            if (fresh || !refactor_(xc, p, 1, 0, alpha, beta, A, piv, dqs,
                                    dfs, jac_meta, counters))
                goto singular;
            fresh = 1;
            continue;
        }
        for (int i = 0; i < N; ++i) xn[i] = xc[i] - dxs[i];
        double norm_new = residual_(xn, p, b_row, alpha, beta, rhs, qv, fv,
                                    rn);
        counters[2] += 1;
        if (norm_new <= atol) {
            memcpy(xc, xn, row);
            return 0;
        }
        if (!(norm_new < norm)) {
            if (!fresh) {
                /* Blame staleness first: refactorise and retry. */
                if (!refactor_(xc, p, 1, 0, alpha, beta, A, piv, dqs, dfs,
                               jac_meta, counters))
                    goto singular;
                fresh = 1;
                continue;
            }
            double step = 0.5;
            for (long long halving = 0; halving < halvings; ++halving) {
                for (int i = 0; i < N; ++i) xn[i] = xc[i] - step * dxs[i];
                norm_new = residual_(xn, p, b_row, alpha, beta, rhs, qv, fv,
                                     rn);
                counters[2] += 1;
                if (isfinite(norm_new) && norm_new < norm) break;
                if (halving < halvings - 1) step = step * 0.5;
            }
        }
        int small = small_update_(xn, xc, rtol);
        int slow = norm_new > contraction * norm;
        memcpy(xc, xn, row);
        memcpy(rc, rn, row);
        norm = norm_new;
        if (norm <= atol || (small && isfinite(norm))) return 0;
        if (slow && !fresh) {
            if (!refactor_(xc, p, 1, 0, alpha, beta, A, piv, dqs, dfs,
                           jac_meta, counters))
                goto singular;
            fresh = 1;
        }
    }
    *have = 0;
    return 1;
singular:
    *have = 0;
    return 3;
}

long long sweep(const double* t_grid, const double* b_grid,
                long long gi_start, long long gi_end,
                double* h_t, double* h_x, double* h_q, double* h_fb,
                long long* hstate, long long* flags,
                double* A, long long* piv, double* jac_meta, double* reg,
                const double* dopts, const long long* iopts,
                const double* p, double* out_x, long long* counters,
                double* xc, double* xn, double* dxs, double* rc, double* rn,
                double* qv, double* fv, double* rhs, double* dqs,
                double* dfs) {
    int have = enter_(flags, p, 1, 0, A, piv, jac_meta, xc, dqs, dfs);
    long long status = 0;
    for (long long gi = gi_start; gi < gi_end; ++gi) {
        long long hc = hstate[0];
        double t_new = t_grid[gi];
        double alpha, beta;
        step_terms_(iopts[2], h_t, h_q, h_fb, hc, 1, t_new, rhs, &alpha,
                    &beta);
        note_alpha_(reg, alpha, dopts[3], &have);
        predict_(h_t, h_x, hc, 1, t_new, xc);
        counters[4] += 1;
        status = chord_solve_(p, b_grid + gi * N, alpha, beta, rhs, dopts,
                              iopts, A, piv, jac_meta, &have, counters, xc,
                              xn, dxs, rc, rn, qv, fv, dqs, dfs);
        if (status != 0) break;
        push_history_(h_t, h_x, h_q, h_fb, hstate, 1, t_new, xc, qv, fv);
        memcpy(out_x + (gi - gi_start) * N, xc, sizeof(double) * N);
        counters[0] += 1;
    }
    flags[0] = have ? 1 : 0;
    return status;
}

long long sweep_adaptive(const double* b_row, long long max_accept,
                         double* h_t, double* h_x, double* h_q,
                         double* h_fb, long long* hstate, long long* flags,
                         double* A, long long* piv, double* jac_meta,
                         double* reg, const double* dopts,
                         const long long* iopts, const double* p,
                         double* out_t, double* out_x, long long* counters,
                         double* xc, double* xn, double* dxs, double* rc,
                         double* rn, double* qv, double* fv, double* rhs,
                         double* dqs, double* dfs) {
    double err_atol = dopts[4];
    double err_rtol = dopts[5];
    double dt_min = dopts[6];
    double dt_max = dopts[7];
    double t_stop = dopts[8];
    long long order = iopts[3];
    int have = enter_(flags, p, 1, 0, A, piv, jac_meta, xc, dqs, dfs);
    double dt = reg[2];
    double mx = fabs(t_stop);
    if (1.0 > mx) mx = 1.0;
    double eps_stop = 1e-15 * mx;
    long long accepted = 0;
    long long status = 0;
    while (accepted < max_accept) {
        long long hc = hstate[0];
        double t = h_t[hc - 1];
        if (!(t < t_stop - eps_stop)) break;
        double rem = t_stop - t;
        if (rem < dt) dt = rem;
        double t_new = t + dt;
        double alpha, beta;
        step_terms_(iopts[2], h_t, h_q, h_fb, hc, 1, t_new, rhs, &alpha,
                    &beta);
        note_alpha_(reg, alpha, dopts[3], &have);
        predict_(h_t, h_x, hc, 1, t_new, xc);
        counters[4] += 1;
        status = chord_solve_(p, b_row, alpha, beta, rhs, dopts, iopts, A,
                              piv, jac_meta, &have, counters, xc, xn, dxs,
                              rc, rn, qv, fv, dqs, dfs);
        if (status != 0) break;
        /* Local-error control (simulate_transient's adaptive block). */
        double dt_next = dt;
        if (hc >= 2 && h_t[hc - 1] != h_t[hc - 2]) {
            double denom = h_t[hc - 1] - h_t[hc - 2];
            double lead = t_new - h_t[hc - 1];
            double acc = 0.0;
            for (int i = 0; i < N; ++i) {
                double slope = (h_x[(hc - 1) * N + i]
                                - h_x[(hc - 2) * N + i]) / denom;
                double xp = h_x[(hc - 1) * N + i] + slope * lead;
                double ax_new = fabs(xc[i]);
                double ax_old = fabs(h_x[(hc - 1) * N + i]);
                double big = ax_new > ax_old ? ax_new : ax_old;
                double scale = err_atol + err_rtol * big;
                double e = (xc[i] - xp) / scale;
                acc += e * e;
            }
            double err = sqrt(acc / N);
            if (err > 1.0) {
                counters[5] += 1;
                double fac = 0.9 * pow(err, -1.0 / (double)(order + 1));
                if (!(fac > 0.2)) fac = 0.2;
                double dtn = dt * fac;
                if (!(dtn > dt_min)) dtn = dt_min;
                if (dtn <= dt_min) {
                    status = 4;
                    break;
                }
                dt = dtn;
                continue;
            }
            double growth;
            if (err > 0.0)
                growth = 0.9 * pow(err, -1.0 / (double)(order + 1));
            else
                growth = 5.0;
            if (!(growth > 0.2)) growth = 0.2;
            if (!(growth < 5.0)) growth = 5.0;
            dt_next = dt * growth;
        }
        push_history_(h_t, h_x, h_q, h_fb, hstate, 1, t_new, xc, qv, fv);
        out_t[accepted] = t_new;
        memcpy(out_x + accepted * N, xc, sizeof(double) * N);
        accepted += 1;
        counters[0] += 1;
        dt = dt_next;
        if (dt_max < dt) dt = dt_max;
    }
    reg[2] = dt;
    flags[0] = have ? 1 : 0;
    return status;
}

static void ens_residual_(const double* X, const double* P, long long B,
                          long long pstride, const double* b_rows,
                          double alpha, double beta, const double* RHS,
                          double* QV, double* FV, double* RC,
                          double* norms) {
    for (long long b = 0; b < B; ++b)
        norms[b] = residual_(X + b * N, P + b * pstride, b_rows + b * N,
                             alpha, beta, RHS + b * N, QV + b * N,
                             FV + b * N, RC + b * N);
}

long long sweep_ens(const double* t_grid, const double* b_grid,
                    long long gi_start, long long gi_end, long long B,
                    long long pstride, double* h_t, double* h_x,
                    double* h_q, double* h_fb, long long* hstate,
                    long long* flags, double* A, long long* piv,
                    double* jac_meta, double* reg, const double* dopts,
                    const long long* iopts, const double* P,
                    double* out_x, long long* counters, long long* iters_b,
                    double* XC, double* XN, double* UPD, double* RC,
                    double* RN, double* QV, double* FV, double* RHS,
                    double* dqs, double* dfs, long long* masks,
                    double* fwork) {
    double atol = dopts[0];
    double rtol = dopts[1];
    double contraction = dopts[2];
    long long maxiter = iopts[0];
    long long halvings = iopts[1];
    long long* conv = masks + 0 * B;
    long long* aband = masks + 1 * B;
    long long* scratch = masks + 2 * B;
    long long* uph = masks + 3 * B;
    long long* need = masks + 4 * B;
    long long* dits = masks + 5 * B;
    double* norms = fwork + 0 * B;
    double* tnorms = fwork + 1 * B;
    double* stepv = fwork + 2 * B;
    int have = enter_(flags, P, B, pstride, A, piv, jac_meta, XC, dqs, dfs);
    long long status = 0;
    for (long long gi = gi_start; gi < gi_end; ++gi) {
        long long hc = hstate[0];
        double t_new = t_grid[gi];
        double alpha, beta;
        step_terms_(iopts[2], h_t, h_q, h_fb, hc, B, t_new, RHS, &alpha,
                    &beta);
        note_alpha_(reg, alpha, dopts[3], &have);
        predict_(h_t, h_x, hc, B, t_new, XC);
        counters[4] += 1;
        ens_residual_(XC, P, B, pstride, b_grid + gi * B * N, alpha,
                      beta, RHS, QV, FV, RC, norms);
        counters[2] += 1;
        long long num_left = 0;
        for (long long b = 0; b < B; ++b) {
            aband[b] = 0;
            dits[b] = 0;
            if (norms[b] <= atol) {
                conv[b] = 1;
            } else {
                conv[b] = 0;
                num_left += 1;
            }
        }
        int fresh = 0;
        if (num_left > 0 && !have) {
            if (!refactor_(XC, P, B, pstride, alpha, beta, A, piv, dqs, dfs,
                           jac_meta, counters))
                goto singular;
            have = 1;
            fresh = 1;
        }
        long long itn = 0;
        while (num_left > 0 && itn < maxiter) {
            itn += 1;
            counters[1] += 1;
            for (long long b = 0; b < B; ++b)
                if (conv[b] == 0 && aband[b] == 0) dits[b] += 1;
            for (long long b = 0; b < B; ++b)
                lu_solve_(A + b * NN, piv + b * N, RC + b * N,
                          UPD + b * N);
            int anybad = 0;
            for (long long b = 0; b < B; ++b) {
                long long fin = 1;
                for (int i = 0; i < N; ++i)
                    if (!isfinite(UPD[b * N + i])) fin = 0;
                scratch[b] = fin;
                if (fin == 0 && conv[b] == 0 && aband[b] == 0)
                    anybad = 1;
            }
            if (anybad) {
                if (!fresh) {
                    /* Blame staleness first: refactorise and retry. */
                    if (!refactor_(XC, P, B, pstride, alpha, beta, A, piv,
                                   dqs, dfs, jac_meta, counters))
                        goto singular;
                    fresh = 1;
                    for (long long b = 0; b < B; ++b)
                        if (conv[b] == 0 && aband[b] == 0) dits[b] -= 1;
                    counters[1] -= 1;
                    itn -= 1;
                    continue;
                }
                /* Fresh factors and still non-finite: abandon those
                 * scenarios to the python-side rescue. */
                num_left = 0;
                for (long long b = 0; b < B; ++b) {
                    if (conv[b] == 0 && aband[b] == 0 && scratch[b] == 0)
                        aband[b] = 1;
                    if (conv[b] == 0 && aband[b] == 0) num_left += 1;
                }
                if (num_left == 0) break;
            }
            for (long long b = 0; b < B; ++b) {
                if (conv[b] == 0 && aband[b] == 0) {
                    for (int i = 0; i < N; ++i)
                        XN[b * N + i] = XC[b * N + i] - UPD[b * N + i];
                } else {
                    for (int i = 0; i < N; ++i)
                        XN[b * N + i] = XC[b * N + i];
                }
            }
            ens_residual_(XN, P, B, pstride, b_grid + gi * B * N, alpha,
                          beta, RHS, QV, FV, RN, tnorms);
            counters[2] += 1;
            int anyup = 0;
            for (long long b = 0; b < B; ++b) {
                long long imp = (tnorms[b] < norms[b]
                                 || tnorms[b] <= atol) ? 1 : 0;
                long long up = (conv[b] == 0 && aband[b] == 0
                                && imp == 0) ? 1 : 0;
                uph[b] = up;
                if (up == 1) anyup = 1;
            }
            if (anyup) {
                if (!fresh) {
                    if (!refactor_(XC, P, B, pstride, alpha, beta, A, piv,
                                   dqs, dfs, jac_meta, counters))
                        goto singular;
                    fresh = 1;
                    for (long long b = 0; b < B; ++b)
                        if (conv[b] == 0 && aband[b] == 0) dits[b] -= 1;
                    counters[1] -= 1;
                    itn -= 1;
                    continue;
                }
                /* Per-scenario damped line search. */
                for (long long b = 0; b < B; ++b) {
                    stepv[b] = (conv[b] == 0 && aband[b] == 0)
                        ? 1.0 : 0.0;
                    need[b] = uph[b];
                }
                for (long long halving = 0; halving < halvings;
                        ++halving) {
                    for (long long b = 0; b < B; ++b)
                        if (need[b] == 1) stepv[b] = stepv[b] * 0.5;
                    for (long long b = 0; b < B; ++b) {
                        if (conv[b] == 0 && aband[b] == 0) {
                            for (int i = 0; i < N; ++i)
                                XN[b * N + i] = XC[b * N + i]
                                    - stepv[b] * UPD[b * N + i];
                        } else {
                            for (int i = 0; i < N; ++i)
                                XN[b * N + i] = XC[b * N + i];
                        }
                    }
                    ens_residual_(XN, P, B, pstride,
                                  b_grid + gi * B * N, alpha, beta,
                                  RHS, QV, FV, RN, tnorms);
                    counters[2] += 1;
                    int anyneed = 0;
                    for (long long b = 0; b < B; ++b) {
                        long long nd = 0;
                        if (uph[b] == 1 && !(isfinite(tnorms[b])
                                             && tnorms[b] < norms[b]))
                            nd = 1;
                        need[b] = nd;
                        if (nd == 1) anyneed = 1;
                    }
                    if (!anyneed) break;
                }
            }
            /* update_small & slow at pre-commit states, then commit. */
            for (long long b = 0; b < B; ++b) {
                long long small = small_update_(XN + b * N, XC + b * N,
                                                rtol);
                long long slow =
                    (tnorms[b] > contraction * norms[b]) ? 1 : 0;
                scratch[b] = 2 * slow + small;
            }
            memcpy(XC, XN, sizeof(double) * B * N);
            memcpy(RC, RN, sizeof(double) * B * N);
            memcpy(norms, tnorms, sizeof(double) * B);
            for (long long b = 0; b < B; ++b) {
                if (conv[b] == 0 && aband[b] == 0) {
                    long long small = scratch[b] % 2;
                    if (norms[b] <= atol
                            || (small == 1 && isfinite(norms[b])))
                        conv[b] = 1;
                }
            }
            num_left = 0;
            for (long long b = 0; b < B; ++b)
                if (conv[b] == 0 && aband[b] == 0) num_left += 1;
            if (num_left == 0) break;
            if (!fresh) {
                int anyslow = 0;
                for (long long b = 0; b < B; ++b)
                    if (scratch[b] >= 2 && conv[b] == 0 && aband[b] == 0)
                        anyslow = 1;
                if (anyslow) {
                    if (!refactor_(XC, P, B, pstride, alpha, beta, A, piv,
                                   dqs, dfs, jac_meta, counters))
                        goto singular;
                    fresh = 1;
                }
            }
        }
        for (long long b = 0; b < B; ++b) iters_b[b] += dits[b];
        int all_conv = 1;
        for (long long b = 0; b < B; ++b)
            if (conv[b] == 0) all_conv = 0;
        if (!all_conv) {
            have = 0;
            status = 1;
            break;
        }
        push_history_(h_t, h_x, h_q, h_fb, hstate, B, t_new, XC, QV, FV);
        memcpy(out_x + (gi - gi_start) * B * N, XC, sizeof(double) * B * N);
        counters[0] += 1;
    }
    flags[0] = have ? 1 : 0;
    return status;
singular:
    /* A singular stack fails the step; its per-scenario iterations are
     * discarded, like the python controller's early return. */
    flags[0] = 0;
    return 3;
}
'''


_C_ENVELOPE_RUNTIME = '''
/* LAPACK dgetrf / dgetrs, called through the addresses SciPy exports
   (scipy.linalg.cython_lapack): nothing is linked. */
typedef void (*dgetrf_t)(int* m, int* n, double* a, int* lda, int* ipiv,
                         int* info);
typedef void (*dgetrs_t)(char* trans, int* n, int* nrhs, double* a,
                         int* lda, int* ipiv, double* b, int* ldb,
                         int* info);

/* One envelope step's system (WarpedCollocationSystem with one slice, a
   phase condition and a theta step): m t1 samples of N variables, M = m N
   collocation unknowns and S = M + 1 with omega. */
typedef struct {
    long long m, M, S;
    const double* p;
    const double* D1;      /* (m, m) t1 differentiation matrix */
    const double* phase;   /* (M,) phase row */
    double target, theta, h;
    const double* b;       /* (N,) forcing b(t2) of the step */
    const double* q_old;   /* (M,) charges at the accepted point */
    const double* rhs_old; /* (M,) omega D1 q + f - b there */
    dgetrf_t getrf;
    dgetrs_t getrs;
} env_t;

/* An iterate z = [samples, omega], its residual r, and q, f and D1 q at
   its samples (IterateEvaluation). */
typedef struct { double *z, *r, *q, *f, *d; } iter_t;

static void env_eval_(const env_t* e, const double* z, double* q,
                      double* f, double* d) {
    long long m = e->m;
    for (long long i = 0; i < m; ++i)
        eval_qf(z + i * N, e->p, q + i * N, f + i * N);
    for (long long i = 0; i < m; ++i) {
        double* di = d + i * N;
        for (int c = 0; c < N; ++c) di[c] = 0.0;
        for (long long j = 0; j < m; ++j) {
            double w = e->D1[i * m + j];
            const double* qj = q + j * N;
            for (int c = 0; c < N; ++c) di[c] += w * qj[c];
        }
    }
}

/* WarpedCollocationSystem.residual in its grouping: (q - q_old)/h
   + theta (omega D1 q + f - b) + (1 - theta) rhs_old, then the phase
   row.  Returns the max-norm, NaN when any entry is NaN. */
static double env_residual_(const env_t* e, iter_t* it) {
    long long M = e->M;
    env_eval_(e, it->z, it->q, it->f, it->d);
    double omega = it->z[M];
    double theta = e->theta;
    double rest = 1.0 - e->theta;
    double norm = 0.0;
    int bad = 0;
    for (long long k = 0; k < M; ++k) {
        double fast = omega * it->d[k] + it->f[k] - e->b[k % N];
        double r = (it->q[k] - e->q_old[k]) / e->h + theta * fast
            + rest * e->rhs_old[k];
        it->r[k] = r;
        double a = fabs(r);
        if (a != a) bad = 1;
        else if (a > norm) norm = a;
    }
    double dot = 0.0;
    for (long long k = 0; k < M; ++k) dot += e->phase[k] * it->z[k];
    double r = dot - e->target;
    it->r[M] = r;
    double a = fabs(r);
    if (a != a) bad = 1;
    else if (a > norm) norm = a;
    if (bad) return NAN;
    return norm;
}

/* fast_terms at an accepted iterate: the next step's q_old and rhs_old. */
static void env_history_(const env_t* e, const iter_t* it, double* q_old,
                         double* rhs_old) {
    double omega = it->z[e->M];
    for (long long k = 0; k < e->M; ++k) {
        rhs_old[k] = omega * it->d[k] + it->f[k] - e->b[k % N];
        q_old[k] = it->q[k];
    }
}

/* The bordered step matrix at (z, h), column-major, in
   DenseCollocationAssembler's grouping: ((D1[i,j] dq_j) omega
   + [i=j] df_i) theta + [i=j] dq_i (1/h); border column theta D1 q, border
   row the phase row, corner 0.  LU-factorised in place by dgetrf; the
   factorisation counts in counters[3] (NULL: the entry rebuild) and
   jac_meta records [h, z].  Returns 0 on a non-finite matrix or a zero
   pivot. */
static int env_refactor_(const env_t* e, const double* z, const double* d,
                         double h, double* A, int* ipiv, double* jac_meta,
                         double* dqs, double* dfs, long long* counters) {
    long long m = e->m, M = e->M, S = e->S;
    double omega = z[M];
    double theta = e->theta;
    double inv_h = 1.0 / h;
    for (long long i = 0; i < m; ++i)
        eval_jac(z + i * N, e->p, dqs + i * NN, dfs + i * NN);
    for (long long j = 0; j < m; ++j) {
        const double* dqj = dqs + j * NN;
        const double* dfj = dfs + j * NN;
        for (int c = 0; c < N; ++c) {
            double* col = A + (j * N + c) * S;
            for (long long i = 0; i < m; ++i) {
                double w = e->D1[i * m + j];
                for (int r = 0; r < N; ++r) {
                    double v = w * dqj[r * N + c] * omega;
                    if (i == j) v += dfj[r * N + c];
                    v = v * theta;
                    if (i == j) v += dqj[r * N + c] * inv_h;
                    col[i * N + r] = v;
                }
            }
            col[M] = e->phase[j * N + c];
        }
    }
    double* border = A + M * S;
    for (long long k = 0; k < M; ++k) border[k] = theta * d[k];
    border[M] = 0.0;
    for (long long k = 0; k < S * S; ++k)
        if (!isfinite(A[k])) return 0;
    int n = (int)S;
    int info = 0;
    e->getrf(&n, &n, A, &n, ipiv, &info);
    if (info != 0) return 0;
    jac_meta[0] = h;
    memcpy(jac_meta + 1, z, sizeof(double) * S);
    if (counters) counters[3] += 1;
    return 1;
}

/* update_is_small over the S unknowns. */
static int env_small_update_(const double* zn, const double* zc,
                             long long S, double rtol) {
    for (long long k = 0; k < S; ++k) {
        double m = fabs(zn[k]);
        if (m < 1.0) m = 1.0;
        if (!(fabs(zn[k] - zc[k]) <= rtol * m)) return 0;
    }
    return 1;
}

static void env_swap_(iter_t* a, iter_t* b) {
    iter_t tmp = *a;
    *a = *b;
    *b = tmp;
}

/* StaleJacobianNewton.solve from the guess in cur->z, on the LU factors
   in (A, ipiv): refactorising at the current iterate when none are held,
   an update goes non-finite or uphill on stale factors, or the residual
   contracts slower than `contraction`; a damped line search once fresh
   factors still go uphill.  Leaves the solution and its evaluation in
   *cur.  Returns 0, or the status of the failure (factors dropped on 1
   and 3, kept on 2). */
static long long env_chord_(const env_t* e, const double* dopts,
                            const long long* iopts, double* A, int* ipiv,
                            double* jac_meta, int* have,
                            long long* counters, iter_t* cur, iter_t* trial,
                            double* dz, double* dqs, double* dfs) {
    double atol = dopts[0];
    double rtol = dopts[1];
    double contraction = dopts[2];
    long long maxiter = iopts[0];
    long long halvings = iopts[1];
    long long S = e->S;
    char trans = 'N';
    int n = (int)S;
    int one = 1;
    int info = 0;
    double norm = env_residual_(e, cur);
    counters[2] += 1;
    if (norm <= atol) return 0;
    if (!isfinite(norm)) return 2;
    int fresh = 0;
    if (!*have) {
        if (!env_refactor_(e, cur->z, cur->d, e->h, A, ipiv, jac_meta, dqs,
                           dfs, counters))
            goto singular;
        *have = 1;
        fresh = 1;
    }
    for (long long itn = 0; itn < maxiter;) {
        itn += 1;
        counters[1] += 1;
        memcpy(dz, cur->r, sizeof(double) * S);
        e->getrs(&trans, &n, &one, A, &n, ipiv, dz, &n, &info);
        int ok = 1;
        for (long long k = 0; k < S; ++k)
            if (!isfinite(dz[k])) ok = 0;
        if (!ok) {
            if (fresh || !env_refactor_(e, cur->z, cur->d, e->h, A, ipiv,
                                        jac_meta, dqs, dfs, counters))
                goto singular;
            fresh = 1;
            continue;
        }
        for (long long k = 0; k < S; ++k) trial->z[k] = cur->z[k] - dz[k];
        double norm_new = env_residual_(e, trial);
        counters[2] += 1;
        if (norm_new <= atol) {
            env_swap_(cur, trial);
            return 0;
        }
        if (!(norm_new < norm)) {
            if (!fresh) {
                /* Blame staleness first: refactorise and retry. */
                if (!env_refactor_(e, cur->z, cur->d, e->h, A, ipiv,
                                   jac_meta, dqs, dfs, counters))
                    goto singular;
                fresh = 1;
                continue;
            }
            double step = 0.5;
            for (long long halving = 0; halving < halvings; ++halving) {
                for (long long k = 0; k < S; ++k)
                    trial->z[k] = cur->z[k] - step * dz[k];
                norm_new = env_residual_(e, trial);
                counters[2] += 1;
                if (isfinite(norm_new) && norm_new < norm) break;
                if (halving < halvings - 1) step = step * 0.5;
            }
        }
        int small = env_small_update_(trial->z, cur->z, S, rtol);
        int slow = norm_new > contraction * norm;
        env_swap_(cur, trial);
        norm = norm_new;
        if (norm <= atol || (small && isfinite(norm))) return 0;
        if (slow && !fresh) {
            if (!env_refactor_(e, cur->z, cur->d, e->h, A, ipiv, jac_meta,
                               dqs, dfs, counters))
                goto singular;
            fresh = 1;
        }
    }
    *have = 0;
    return 1;
singular:
    *have = 0;
    return 3;
}

/* SolverCore.note_parameters for one registered parameter (nan =
   unset): a jump beyond param_rtol drops the factors. */
static inline void env_note_(double* reg, double value, double param_rtol,
                             int* have) {
    double old = *reg;
    if (old == old && fabs(value - old) > param_rtol * fabs(old)) *have = 0;
    *reg = value;
}

/* extrapolate over the ring's newest hc entries of S values each. */
static void env_predict_(const double* h_t, const double* h_z, long long hc,
                         long long S, double t_new, double* z) {
    const double* z1 = h_z + (hc - 1) * S;
    if (hc >= 3 && h_t[0] != h_t[1] && h_t[1] != h_t[2]
            && h_t[0] != h_t[2]) {
        double ta = h_t[0], tb = h_t[1], tc = h_t[2];
        double la = (t_new - tb) * (t_new - tc) / ((ta - tb) * (ta - tc));
        double lb = (t_new - ta) * (t_new - tc) / ((tb - ta) * (tb - tc));
        double lc = (t_new - ta) * (t_new - tb) / ((tc - ta) * (tc - tb));
        for (long long k = 0; k < S; ++k)
            z[k] = la * h_z[k] + lb * h_z[S + k] + lc * h_z[2 * S + k];
    } else if (hc >= 2 && h_t[hc - 1] != h_t[hc - 2]) {
        const double* z2 = h_z + (hc - 2) * S;
        double frac = (t_new - h_t[hc - 1]) / (h_t[hc - 1] - h_t[hc - 2]);
        for (long long k = 0; k < S; ++k)
            z[k] = z1[k] + (z1[k] - z2[k]) * frac;
    } else {
        memcpy(z, z1, sizeof(double) * S);
    }
}

/* Append an accepted [samples, omega] to the ring (hstate[0] = occupied
   entries), dropping the oldest once all three are full. */
static void env_push_(double* h_t, double* h_z, long long* hstate,
                      long long S, double t_new, const double* z) {
    long long hc = hstate[0];
    if (hc == 3) {
        memmove(h_t, h_t + 1, sizeof(double) * 2);
        memmove(h_z, h_z + S, sizeof(double) * 2 * S);
        hc = 2;
    }
    h_t[hc] = t_new;
    memcpy(h_z + hc * S, z, sizeof(double) * S);
    hstate[0] = hc + 1;
}

/* Fixed envelope steps g_start..g_end-1 of the grid: step g ends at
   t2_grid[g] under forcing row g of b_grid (row g_start - 1 is the
   newest ring entry's).  On entry the held factors are rebuilt from
   jac_meta when flags[1] asks, and q_old, rhs_old are evaluated at the
   newest ring entry, so a resumed or re-entered march continues bit for
   bit.  A failing step is not committed: the registered parameters and
   the factors' metadata are restored to the step's start (flags[1] set
   to rebuild them) and its work is not counted, so a NumPy replay makes
   the step's decisions again and counts them once.
   dopts = [atol, rtol, contraction, param_rtol, theta, h, target],
   iopts = [max_iterations, max_step_halvings, m]. */
long long envelope_sweep(const double* t2_grid, const double* b_grid,
                         long long g_start, long long g_end, double* ring_t,
                         double* ring_z, long long* hstate, long long* flags,
                         double* A, int* ipiv, double* jac_meta, double* reg,
                         const double* dopts, const long long* iopts,
                         const double* p, const double* D1,
                         const double* phase, double* out_z,
                         long long* counters, double* work, void* getrf,
                         void* getrs) {
    env_t e;
    e.m = iopts[2];
    e.M = e.m * N;
    e.S = e.M + 1;
    e.p = p;
    e.D1 = D1;
    e.phase = phase;
    e.theta = dopts[4];
    e.h = dopts[5];
    e.target = dopts[6];
    e.getrf = (dgetrf_t)getrf;
    e.getrs = (dgetrs_t)getrs;
    long long M = e.M, S = e.S;
    size_t row = sizeof(double) * S;
    iter_t it[2];
    double* w = work;
    for (int s = 0; s < 2; ++s) {
        it[s].z = w; w += S;
        it[s].r = w; w += S;
        it[s].q = w; w += M;
        it[s].f = w; w += M;
        it[s].d = w; w += M;
    }
    double* dz = w; w += S;
    double* q_old = w; w += M;
    double* rhs_old = w; w += M;
    double* meta0 = w; w += S + 1;
    double* dqs = w; w += e.m * NN;
    double* dfs = w;
    e.q_old = q_old;
    e.rhs_old = rhs_old;
    iter_t cur = it[0], trial = it[1];

    long long hc = hstate[0];
    memcpy(cur.z, ring_z + (hc - 1) * S, row);
    e.b = b_grid + (g_start - 1) * N;
    env_eval_(&e, cur.z, cur.q, cur.f, cur.d);
    env_history_(&e, &cur, q_old, rhs_old);
    int have = flags[0] != 0;
    if (have && flags[1] != 0) {
        memcpy(cur.z, jac_meta + 1, row);
        env_eval_(&e, cur.z, cur.q, cur.f, cur.d);
        have = env_refactor_(&e, cur.z, cur.d, jac_meta[0], A, ipiv,
                             jac_meta, dqs, dfs, NULL);
    }
    flags[1] = 0;
    long long status = 0;
    for (long long g = g_start; g < g_end; ++g) {
        hc = hstate[0];
        e.b = b_grid + g * N;
        int have0 = have;
        double reg0 = reg[0], reg1 = reg[1];
        long long counts0[5];
        memcpy(counts0, counters, sizeof(counts0));
        memcpy(meta0, jac_meta, row + sizeof(double));
        env_note_(reg, e.h, dopts[3], &have);
        env_note_(reg + 1, ring_z[(hc - 1) * S + M], dopts[3], &have);
        env_predict_(ring_t, ring_z, hc, S, t2_grid[g], cur.z);
        counters[4] += 1;
        status = env_chord_(&e, dopts, iopts, A, ipiv, jac_meta, &have,
                            counters, &cur, &trial, dz, dqs, dfs);
        if (status == 0 && cur.z[M] <= 0.0) status = 5;
        if (status != 0) {
            memcpy(counters, counts0, sizeof(counts0));
            reg[0] = reg0;
            reg[1] = reg1;
            memcpy(jac_meta, meta0, row + sizeof(double));
            have = have0;
            flags[1] = have0;
            break;
        }
        env_history_(&e, &cur, q_old, rhs_old);
        env_push_(ring_t, ring_z, hstate, S, t2_grid[g], cur.z);
        memcpy(out_z + (g - g_start) * S, cur.z, row);
        counters[0] += 1;
    }
    flags[0] = have ? 1 : 0;
    return status;
}
'''


def _c_header(spec):
    """The unit's head: constants, ``eval_qf`` and ``eval_jac``."""
    qf_body = "\n".join(_render_c(spec.qf_stmts, 1))
    jac_body = "\n".join(_render_c(spec.jac_stmts, 1))
    return f'''/* Auto-generated kernels for {spec.dae_label} (repro.kernels).
 * Do not edit: regenerate via repro.kernels.codegen.generate_c_source.
 */
#include <math.h>
#include <string.h>

#define N {spec.n}
#define NN {spec.n * spec.n}

void eval_qf(const double* x, const double* p, double* q, double* f) {{
    for (int _i = 0; _i < N; ++_i) {{ q[_i] = 0.0; f[_i] = 0.0; }}
{qf_body}
}}

void eval_jac(const double* x, const double* p, double* dq, double* df) {{
    for (int _i = 0; _i < NN; ++_i) {{ dq[_i] = 0.0; df[_i] = 0.0; }}
{jac_body}
}}
'''


def generate_c_source(spec):
    """The sweep unit: point and batch evaluations, the three sweeps."""
    return _c_header(spec) + _C_RUNTIME


def generate_envelope_source(spec):
    """The envelope unit: point evaluations and ``envelope_sweep``."""
    return _c_header(spec) + _C_ENVELOPE_RUNTIME
