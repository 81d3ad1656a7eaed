"""Render a :class:`~repro.kernels.registry.KernelSpec` to C source.

One spec renders to one C translation unit, compiled with the host
toolchain (``cc -O2 -shared``) and driven through ctypes (see
:mod:`repro.kernels.backends`).  The reference it is tested against is
not generated code but the NumPy engines themselves.

The unit carries seven entry points: ``eval_qf`` / ``eval_jac``
(single point), ``eval_qf_batch`` / ``eval_jac_batch`` (lock-step and
collocation batches), ``sweep`` — the fused fixed-step chord march
(integrator terms, polynomial predictor, residual, frozen-LU chord
Newton with refresh/line-search policy, history ring update) that runs
many grid steps per call with zero Python in between — plus its two
siblings: ``sweep_adaptive``, the same serial chord step wrapped in the
proportional local-error dt controller (constant forcing only), and
``sweep_ens``, the batched ``(B, n)`` lock-step ensemble march over a
``(B, n, n)`` frozen-LU factor stack with per-scenario convergence /
abandonment masks and a per-scenario damped line search.

``sweep`` transcribes :class:`repro.linalg.newton.StaleJacobianNewton`
and the :func:`repro.transient.engine.simulate_transient` fixed-grid
inner loop statement for statement; ``sweep_adaptive`` additionally
transcribes the engine's adaptive error-control block, and ``sweep_ens``
transcribes :class:`repro.transient.ensemble._EnsembleChord` /
``_EnsembleStepController``.  Any change there must be mirrored here
(the equivalence tests in ``tests/test_kernels.py`` will catch a
drift).  Status codes returned by the sweep entry points:

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
====  =========================================================
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

static int refactor_(const double* x, const double* p, double alpha,
                     double beta, double* A, long long* piv, double* dqs,
                     double* dfs, double* jac_meta) {
    eval_jac(x, p, dqs, dfs);
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            A[i * N + j] = alpha * dqs[i * N + j] + beta * dfs[i * N + j];
    if (!lu_factor_(A, piv)) return 0;
    jac_meta[0] = alpha;
    jac_meta[1] = beta;
    for (int i = 0; i < N; ++i) jac_meta[2 + i] = x[i];
    return 1;
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
    double atol = dopts[0];
    double rtol = dopts[1];
    double contraction = dopts[2];
    double param_rtol = dopts[3];
    long long maxiter = iopts[0];
    long long halvings = iopts[1];
    long long integ = iopts[2];
    int have = flags[0] != 0;
    if (have && flags[1] != 0) {
        /* Resume: rebuild the frozen LU from checkpoint metadata. */
        for (int i = 0; i < N; ++i) xc[i] = jac_meta[2 + i];
        eval_jac(xc, p, dqs, dfs);
        for (int i = 0; i < N; ++i)
            for (int j = 0; j < N; ++j)
                A[i * N + j] = jac_meta[0] * dqs[i * N + j]
                    + jac_meta[1] * dfs[i * N + j];
        if (!lu_factor_(A, piv)) have = 0;
    }
    flags[1] = 0;
    long long status = 0;
    for (long long gi = gi_start; gi < gi_end; ++gi) {
        long long hc = hstate[0];
        double t_new = t_grid[gi];
        double dt = t_new - h_t[hc - 1];
        double alpha, beta;
        if (integ == 1) {
            alpha = 1.0 / dt;
            beta = 0.5;
            for (int i = 0; i < N; ++i)
                rhs[i] = -h_q[(hc - 1) * N + i] / dt
                    + 0.5 * h_fb[(hc - 1) * N + i];
        } else if (integ == 2 && hc >= 2) {
            double t1 = h_t[hc - 1];
            double t2 = h_t[hc - 2];
            alpha = (2.0 * t_new - t1 - t2)
                / ((t_new - t1) * (t_new - t2));
            beta = 1.0;
            double d1 = (t_new - t2) / ((t1 - t_new) * (t1 - t2));
            double d2 = (t_new - t1) / ((t2 - t_new) * (t2 - t1));
            for (int i = 0; i < N; ++i)
                rhs[i] = d1 * h_q[(hc - 1) * N + i]
                    + d2 * h_q[(hc - 2) * N + i];
        } else {
            alpha = 1.0 / dt;
            beta = 1.0;
            for (int i = 0; i < N; ++i)
                rhs[i] = -h_q[(hc - 1) * N + i] / dt;
        }
        if (alpha != reg[1]) {
            double old = reg[0];
            if (old == old && fabs(alpha - old) > param_rtol * fabs(old))
                have = 0;
            reg[0] = alpha;
            reg[1] = alpha;
        }
        if (hc >= 3 && h_t[0] != h_t[1] && h_t[1] != h_t[2]
                && h_t[0] != h_t[2]) {
            double ta = h_t[0], tb = h_t[1], tc = h_t[2];
            double la = (t_new - tb) * (t_new - tc)
                / ((ta - tb) * (ta - tc));
            double lb = (t_new - ta) * (t_new - tc)
                / ((tb - ta) * (tb - tc));
            double lc = (t_new - ta) * (t_new - tb)
                / ((tc - ta) * (tc - tb));
            for (int i = 0; i < N; ++i)
                xc[i] = la * h_x[0 * N + i] + lb * h_x[1 * N + i]
                    + lc * h_x[2 * N + i];
        } else if (hc >= 2 && h_t[hc - 1] != h_t[hc - 2]) {
            double frac = (t_new - h_t[hc - 1])
                / (h_t[hc - 1] - h_t[hc - 2]);
            for (int i = 0; i < N; ++i)
                xc[i] = h_x[(hc - 1) * N + i]
                    + (h_x[(hc - 1) * N + i] - h_x[(hc - 2) * N + i])
                    * frac;
        } else {
            for (int i = 0; i < N; ++i) xc[i] = h_x[(hc - 1) * N + i];
        }
        counters[4] += 1;
        double norm = residual_(xc, p, b_grid + gi * N, alpha, beta, rhs,
                                qv, fv, rc);
        counters[2] += 1;
        long long itn = 0;
        long long failed = 0;
        int converged = norm <= atol;
        if (!converged && !isfinite(norm)) failed = 2;
        int fresh = 0;
        if (!converged && failed == 0 && !have) {
            if (refactor_(xc, p, alpha, beta, A, piv, dqs, dfs, jac_meta)) {
                counters[3] += 1;
                have = 1;
                fresh = 1;
            } else {
                have = 0;
                failed = 3;
            }
        }
        while (failed == 0 && !converged && itn < maxiter) {
            itn += 1;
            counters[1] += 1;
            lu_solve_(A, piv, rc, dxs);
            int ok = 1;
            for (int i = 0; i < N; ++i)
                if (!isfinite(dxs[i])) ok = 0;
            if (!ok) {
                if (fresh) { have = 0; failed = 3; break; }
                if (refactor_(xc, p, alpha, beta, A, piv, dqs, dfs,
                              jac_meta)) {
                    counters[3] += 1;
                    fresh = 1;
                    continue;
                }
                have = 0; failed = 3; break;
            }
            for (int i = 0; i < N; ++i) xn[i] = xc[i] - dxs[i];
            double norm_new = residual_(xn, p, b_grid + gi * N, alpha,
                                        beta, rhs, qv, fv, rn);
            counters[2] += 1;
            if (norm_new <= atol) {
                for (int i = 0; i < N; ++i) xc[i] = xn[i];
                norm = norm_new;
                converged = 1;
                break;
            }
            if (!(norm_new < norm)) {
                if (!fresh) {
                    if (refactor_(xc, p, alpha, beta, A, piv, dqs, dfs,
                                  jac_meta)) {
                        counters[3] += 1;
                        fresh = 1;
                        continue;
                    }
                    have = 0; failed = 3; break;
                }
                double step = 0.5;
                for (long long halving = 0; halving < halvings; ++halving) {
                    for (int i = 0; i < N; ++i)
                        xn[i] = xc[i] - step * dxs[i];
                    norm_new = residual_(xn, p, b_grid + gi * N, alpha,
                                         beta, rhs, qv, fv, rn);
                    counters[2] += 1;
                    if (isfinite(norm_new) && norm_new < norm) break;
                    if (halving < halvings - 1) step = step * 0.5;
                }
            }
            int small = 1;
            for (int i = 0; i < N; ++i) {
                double m = fabs(xn[i]);
                if (m < 1.0) m = 1.0;
                double d = fabs(xn[i] - xc[i]);
                if (!(d <= rtol * m)) small = 0;
            }
            int slow = norm_new > contraction * norm;
            for (int i = 0; i < N; ++i) { xc[i] = xn[i]; rc[i] = rn[i]; }
            norm = norm_new;
            if (norm <= atol || (small && isfinite(norm))) {
                converged = 1;
                break;
            }
            if (slow && !fresh) {
                if (refactor_(xc, p, alpha, beta, A, piv, dqs, dfs,
                              jac_meta)) {
                    counters[3] += 1;
                    fresh = 1;
                } else {
                    have = 0; failed = 3; break;
                }
            }
        }
        if (!converged) {
            if (failed == 0) { failed = 1; have = 0; }
            status = failed;
            break;
        }
        if (hc == 3) {
            for (int j = 0; j < 2; ++j) {
                h_t[j] = h_t[j + 1];
                for (int i = 0; i < N; ++i) {
                    h_x[j * N + i] = h_x[(j + 1) * N + i];
                    h_q[j * N + i] = h_q[(j + 1) * N + i];
                    h_fb[j * N + i] = h_fb[(j + 1) * N + i];
                }
            }
            hc = 2;
        }
        h_t[hc] = t_new;
        for (int i = 0; i < N; ++i) {
            h_x[hc * N + i] = xc[i];
            h_q[hc * N + i] = qv[i];
            h_fb[hc * N + i] = fv[i];
        }
        hstate[0] = hc + 1;
        long long row = gi - gi_start;
        for (int i = 0; i < N; ++i) out_x[row * N + i] = xc[i];
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
    double atol = dopts[0];
    double rtol = dopts[1];
    double contraction = dopts[2];
    double param_rtol = dopts[3];
    double err_atol = dopts[4];
    double err_rtol = dopts[5];
    double dt_min = dopts[6];
    double dt_max = dopts[7];
    double t_stop = dopts[8];
    long long maxiter = iopts[0];
    long long halvings = iopts[1];
    long long integ = iopts[2];
    long long order = iopts[3];
    int have = flags[0] != 0;
    if (have && flags[1] != 0) {
        /* Resume: rebuild the frozen LU from checkpoint metadata. */
        for (int i = 0; i < N; ++i) xc[i] = jac_meta[2 + i];
        eval_jac(xc, p, dqs, dfs);
        for (int i = 0; i < N; ++i)
            for (int j = 0; j < N; ++j)
                A[i * N + j] = jac_meta[0] * dqs[i * N + j]
                    + jac_meta[1] * dfs[i * N + j];
        if (!lu_factor_(A, piv)) have = 0;
    }
    flags[1] = 0;
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
        double dts = t_new - h_t[hc - 1];
        double alpha, beta;
        if (integ == 1) {
            alpha = 1.0 / dts;
            beta = 0.5;
            for (int i = 0; i < N; ++i)
                rhs[i] = -h_q[(hc - 1) * N + i] / dts
                    + 0.5 * h_fb[(hc - 1) * N + i];
        } else if (integ == 2 && hc >= 2) {
            double t1 = h_t[hc - 1];
            double t2 = h_t[hc - 2];
            alpha = (2.0 * t_new - t1 - t2)
                / ((t_new - t1) * (t_new - t2));
            beta = 1.0;
            double d1 = (t_new - t2) / ((t1 - t_new) * (t1 - t2));
            double d2 = (t_new - t1) / ((t2 - t_new) * (t2 - t1));
            for (int i = 0; i < N; ++i)
                rhs[i] = d1 * h_q[(hc - 1) * N + i]
                    + d2 * h_q[(hc - 2) * N + i];
        } else {
            alpha = 1.0 / dts;
            beta = 1.0;
            for (int i = 0; i < N; ++i)
                rhs[i] = -h_q[(hc - 1) * N + i] / dts;
        }
        if (alpha != reg[1]) {
            double old = reg[0];
            if (old == old && fabs(alpha - old) > param_rtol * fabs(old))
                have = 0;
            reg[0] = alpha;
            reg[1] = alpha;
        }
        if (hc >= 3 && h_t[0] != h_t[1] && h_t[1] != h_t[2]
                && h_t[0] != h_t[2]) {
            double ta = h_t[0], tb = h_t[1], tc = h_t[2];
            double la = (t_new - tb) * (t_new - tc)
                / ((ta - tb) * (ta - tc));
            double lb = (t_new - ta) * (t_new - tc)
                / ((tb - ta) * (tb - tc));
            double lc = (t_new - ta) * (t_new - tb)
                / ((tc - ta) * (tc - tb));
            for (int i = 0; i < N; ++i)
                xc[i] = la * h_x[0 * N + i] + lb * h_x[1 * N + i]
                    + lc * h_x[2 * N + i];
        } else if (hc >= 2 && h_t[hc - 1] != h_t[hc - 2]) {
            double frac = (t_new - h_t[hc - 1])
                / (h_t[hc - 1] - h_t[hc - 2]);
            for (int i = 0; i < N; ++i)
                xc[i] = h_x[(hc - 1) * N + i]
                    + (h_x[(hc - 1) * N + i] - h_x[(hc - 2) * N + i])
                    * frac;
        } else {
            for (int i = 0; i < N; ++i) xc[i] = h_x[(hc - 1) * N + i];
        }
        counters[4] += 1;
        double norm = residual_(xc, p, b_row, alpha, beta, rhs,
                                qv, fv, rc);
        counters[2] += 1;
        long long itn = 0;
        long long failed = 0;
        int converged = norm <= atol;
        if (!converged && !isfinite(norm)) failed = 2;
        int fresh = 0;
        if (!converged && failed == 0 && !have) {
            if (refactor_(xc, p, alpha, beta, A, piv, dqs, dfs, jac_meta)) {
                counters[3] += 1;
                have = 1;
                fresh = 1;
            } else {
                have = 0;
                failed = 3;
            }
        }
        while (failed == 0 && !converged && itn < maxiter) {
            itn += 1;
            counters[1] += 1;
            lu_solve_(A, piv, rc, dxs);
            int ok = 1;
            for (int i = 0; i < N; ++i)
                if (!isfinite(dxs[i])) ok = 0;
            if (!ok) {
                if (fresh) { have = 0; failed = 3; break; }
                if (refactor_(xc, p, alpha, beta, A, piv, dqs, dfs,
                              jac_meta)) {
                    counters[3] += 1;
                    fresh = 1;
                    continue;
                }
                have = 0; failed = 3; break;
            }
            for (int i = 0; i < N; ++i) xn[i] = xc[i] - dxs[i];
            double norm_new = residual_(xn, p, b_row, alpha, beta, rhs,
                                        qv, fv, rn);
            counters[2] += 1;
            if (norm_new <= atol) {
                for (int i = 0; i < N; ++i) xc[i] = xn[i];
                norm = norm_new;
                converged = 1;
                break;
            }
            if (!(norm_new < norm)) {
                if (!fresh) {
                    if (refactor_(xc, p, alpha, beta, A, piv, dqs, dfs,
                                  jac_meta)) {
                        counters[3] += 1;
                        fresh = 1;
                        continue;
                    }
                    have = 0; failed = 3; break;
                }
                double step = 0.5;
                for (long long halving = 0; halving < halvings; ++halving) {
                    for (int i = 0; i < N; ++i)
                        xn[i] = xc[i] - step * dxs[i];
                    norm_new = residual_(xn, p, b_row, alpha, beta, rhs,
                                         qv, fv, rn);
                    counters[2] += 1;
                    if (isfinite(norm_new) && norm_new < norm) break;
                    if (halving < halvings - 1) step = step * 0.5;
                }
            }
            int small = 1;
            for (int i = 0; i < N; ++i) {
                double m = fabs(xn[i]);
                if (m < 1.0) m = 1.0;
                double d = fabs(xn[i] - xc[i]);
                if (!(d <= rtol * m)) small = 0;
            }
            int slow = norm_new > contraction * norm;
            for (int i = 0; i < N; ++i) { xc[i] = xn[i]; rc[i] = rn[i]; }
            norm = norm_new;
            if (norm <= atol || (small && isfinite(norm))) {
                converged = 1;
                break;
            }
            if (slow && !fresh) {
                if (refactor_(xc, p, alpha, beta, A, piv, dqs, dfs,
                              jac_meta)) {
                    counters[3] += 1;
                    fresh = 1;
                } else {
                    have = 0; failed = 3; break;
                }
            }
        }
        if (!converged) {
            if (failed == 0) { failed = 1; have = 0; }
            status = failed;
            break;
        }
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
        if (hc == 3) {
            for (int j = 0; j < 2; ++j) {
                h_t[j] = h_t[j + 1];
                for (int i = 0; i < N; ++i) {
                    h_x[j * N + i] = h_x[(j + 1) * N + i];
                    h_q[j * N + i] = h_q[(j + 1) * N + i];
                    h_fb[j * N + i] = h_fb[(j + 1) * N + i];
                }
            }
            hc = 2;
        }
        h_t[hc] = t_new;
        for (int i = 0; i < N; ++i) {
            h_x[hc * N + i] = xc[i];
            h_q[hc * N + i] = qv[i];
            h_fb[hc * N + i] = fv[i];
        }
        hstate[0] = hc + 1;
        out_t[accepted] = t_new;
        for (int i = 0; i < N; ++i) out_x[accepted * N + i] = xc[i];
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

static int ens_refactor_(const double* X, const double* P, long long B,
                         long long pstride, double alpha, double beta,
                         double* A, long long* piv, double* dqs,
                         double* dfs, double* jac_meta) {
    for (long long b = 0; b < B; ++b) {
        eval_jac(X + b * N, P + b * pstride, dqs, dfs);
        for (int i = 0; i < N; ++i)
            for (int j = 0; j < N; ++j)
                A[b * NN + i * N + j] = alpha * dqs[i * N + j]
                    + beta * dfs[i * N + j];
        if (!lu_factor_(A + b * NN, piv + b * N)) return 0;
    }
    jac_meta[0] = alpha;
    jac_meta[1] = beta;
    for (long long b = 0; b < B; ++b)
        for (int i = 0; i < N; ++i)
            jac_meta[2 + b * N + i] = X[b * N + i];
    return 1;
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
    double param_rtol = dopts[3];
    long long maxiter = iopts[0];
    long long halvings = iopts[1];
    long long integ = iopts[2];
    long long* conv = masks + 0 * B;
    long long* aband = masks + 1 * B;
    long long* scratch = masks + 2 * B;
    long long* uph = masks + 3 * B;
    long long* need = masks + 4 * B;
    long long* dits = masks + 5 * B;
    double* norms = fwork + 0 * B;
    double* tnorms = fwork + 1 * B;
    double* stepv = fwork + 2 * B;
    int have = flags[0] != 0;
    if (have && flags[1] != 0) {
        /* Resume/re-entry: rebuild every LU block from metadata. */
        for (long long b = 0; b < B; ++b)
            for (int i = 0; i < N; ++i)
                XC[b * N + i] = jac_meta[2 + b * N + i];
        if (!ens_refactor_(XC, P, B, pstride, jac_meta[0], jac_meta[1],
                           A, piv, dqs, dfs, jac_meta))
            have = 0;
    }
    flags[1] = 0;
    long long status = 0;
    for (long long gi = gi_start; gi < gi_end; ++gi) {
        long long hc = hstate[0];
        double t_new = t_grid[gi];
        double dt = t_new - h_t[hc - 1];
        double alpha, beta;
        if (integ == 1) {
            alpha = 1.0 / dt;
            beta = 0.5;
            for (long long b = 0; b < B; ++b)
                for (int i = 0; i < N; ++i)
                    RHS[b * N + i] = -h_q[((hc - 1) * B + b) * N + i] / dt
                        + 0.5 * h_fb[((hc - 1) * B + b) * N + i];
        } else if (integ == 2 && hc >= 2) {
            double t1 = h_t[hc - 1];
            double t2 = h_t[hc - 2];
            alpha = (2.0 * t_new - t1 - t2)
                / ((t_new - t1) * (t_new - t2));
            beta = 1.0;
            double d1 = (t_new - t2) / ((t1 - t_new) * (t1 - t2));
            double d2 = (t_new - t1) / ((t2 - t_new) * (t2 - t1));
            for (long long b = 0; b < B; ++b)
                for (int i = 0; i < N; ++i)
                    RHS[b * N + i] =
                        d1 * h_q[((hc - 1) * B + b) * N + i]
                        + d2 * h_q[((hc - 2) * B + b) * N + i];
        } else {
            alpha = 1.0 / dt;
            beta = 1.0;
            for (long long b = 0; b < B; ++b)
                for (int i = 0; i < N; ++i)
                    RHS[b * N + i] =
                        -h_q[((hc - 1) * B + b) * N + i] / dt;
        }
        /* _notify_alpha: one tracked alpha in reg[0] (nan = unset). */
        double old = reg[0];
        if (old == old && fabs(alpha - old) > param_rtol * fabs(old))
            have = 0;
        reg[0] = alpha;
        if (hc >= 3 && h_t[0] != h_t[1] && h_t[1] != h_t[2]
                && h_t[0] != h_t[2]) {
            double ta = h_t[0], tb = h_t[1], tc = h_t[2];
            double la = (t_new - tb) * (t_new - tc)
                / ((ta - tb) * (ta - tc));
            double lb = (t_new - ta) * (t_new - tc)
                / ((tb - ta) * (tb - tc));
            double lc = (t_new - ta) * (t_new - tb)
                / ((tc - ta) * (tc - tb));
            for (long long b = 0; b < B; ++b)
                for (int i = 0; i < N; ++i)
                    XC[b * N + i] = la * h_x[(0 * B + b) * N + i]
                        + lb * h_x[(1 * B + b) * N + i]
                        + lc * h_x[(2 * B + b) * N + i];
        } else if (hc >= 2 && h_t[hc - 1] != h_t[hc - 2]) {
            double frac = (t_new - h_t[hc - 1])
                / (h_t[hc - 1] - h_t[hc - 2]);
            for (long long b = 0; b < B; ++b)
                for (int i = 0; i < N; ++i)
                    XC[b * N + i] = h_x[((hc - 1) * B + b) * N + i]
                        + (h_x[((hc - 1) * B + b) * N + i]
                           - h_x[((hc - 2) * B + b) * N + i]) * frac;
        } else {
            for (long long b = 0; b < B; ++b)
                for (int i = 0; i < N; ++i)
                    XC[b * N + i] = h_x[((hc - 1) * B + b) * N + i];
        }
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
        long long failed = 0;
        int fresh = 0;
        if (num_left > 0 && !have) {
            if (ens_refactor_(XC, P, B, pstride, alpha, beta, A, piv,
                              dqs, dfs, jac_meta)) {
                counters[3] += 1;
                have = 1;
                fresh = 1;
            } else {
                have = 0;
                failed = 3;
            }
        }
        long long itn = 0;
        while (failed == 0 && num_left > 0 && itn < maxiter) {
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
                    if (ens_refactor_(XC, P, B, pstride, alpha, beta, A,
                                      piv, dqs, dfs, jac_meta)) {
                        counters[3] += 1;
                        fresh = 1;
                        for (long long b = 0; b < B; ++b)
                            if (conv[b] == 0 && aband[b] == 0)
                                dits[b] -= 1;
                        counters[1] -= 1;
                        itn -= 1;
                        continue;
                    }
                    have = 0; failed = 3; break;
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
                    if (ens_refactor_(XC, P, B, pstride, alpha, beta, A,
                                      piv, dqs, dfs, jac_meta)) {
                        counters[3] += 1;
                        fresh = 1;
                        for (long long b = 0; b < B; ++b)
                            if (conv[b] == 0 && aband[b] == 0)
                                dits[b] -= 1;
                        counters[1] -= 1;
                        itn -= 1;
                        continue;
                    }
                    have = 0; failed = 3; break;
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
                long long small = 1;
                for (int i = 0; i < N; ++i) {
                    double m = fabs(XN[b * N + i]);
                    if (m < 1.0) m = 1.0;
                    double d = fabs(XN[b * N + i] - XC[b * N + i]);
                    if (!(d <= rtol * m)) small = 0;
                }
                long long slow =
                    (tnorms[b] > contraction * norms[b]) ? 1 : 0;
                scratch[b] = 2 * slow + small;
            }
            for (long long b = 0; b < B; ++b) {
                for (int i = 0; i < N; ++i) {
                    XC[b * N + i] = XN[b * N + i];
                    RC[b * N + i] = RN[b * N + i];
                }
                norms[b] = tnorms[b];
            }
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
                    if (ens_refactor_(XC, P, B, pstride, alpha, beta, A,
                                      piv, dqs, dfs, jac_meta)) {
                        counters[3] += 1;
                        fresh = 1;
                    } else {
                        have = 0; failed = 3; break;
                    }
                }
            }
        }
        if (failed == 3) {
            /* Singular stack: per-scenario iterations are discarded,
             * like the python controller's early return. */
            status = 3;
            break;
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
        if (hc == 3) {
            for (int j = 0; j < 2; ++j) {
                h_t[j] = h_t[j + 1];
                for (long long b = 0; b < B; ++b)
                    for (int i = 0; i < N; ++i) {
                        h_x[(j * B + b) * N + i] =
                            h_x[((j + 1) * B + b) * N + i];
                        h_q[(j * B + b) * N + i] =
                            h_q[((j + 1) * B + b) * N + i];
                        h_fb[(j * B + b) * N + i] =
                            h_fb[((j + 1) * B + b) * N + i];
                    }
            }
            hc = 2;
        }
        h_t[hc] = t_new;
        for (long long b = 0; b < B; ++b)
            for (int i = 0; i < N; ++i) {
                h_x[(hc * B + b) * N + i] = XC[b * N + i];
                h_q[(hc * B + b) * N + i] = QV[b * N + i];
                h_fb[(hc * B + b) * N + i] = FV[b * N + i];
            }
        hstate[0] = hc + 1;
        long long row = gi - gi_start;
        for (long long b = 0; b < B; ++b)
            for (int i = 0; i < N; ++i)
                out_x[(row * B + b) * N + i] = XC[b * N + i];
        counters[0] += 1;
    }
    flags[0] = have ? 1 : 0;
    return status;
}
'''


def generate_c_source(spec):
    qf_body = "\n".join(_render_c(spec.qf_stmts, 1))
    jac_body = "\n".join(_render_c(spec.jac_stmts, 1))
    return f'''/* Auto-generated kernels for {spec.dae_label} (repro.kernels).
 * Do not edit: regenerate via repro.kernels.codegen.generate_c_source.
 */
#include <math.h>

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
{_C_RUNTIME}'''
