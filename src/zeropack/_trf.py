"""Bounded nonlinear least squares by the trust-region reflective method.

A numpy-only port of ``scipy.optimize.least_squares(fun, x0, bounds=(lb,
inf), method="trf", x_scale="jac")`` from scipy 1.17.1 ``optimize/_lsq``:
``trf.py`` (``trf_bounds``, ``select_step``), the ``common.py`` helpers
they call, and the dense two-point difference of ``optimize/_numdiff.py``.
It keeps the one case calibration uses: lower bounds only, linear loss,
the exact (SVD) trust-region solver, Jacobian scaling, ``ftol = xtol =
gtol = 1e-8`` and at most ``100 n`` evaluations. The method is that of
Branch, Coleman & Li, SIAM J. Sci. Comput. 21 (1999) 1-23, with the
trust-region subproblem solved as in More, Lecture Notes in Math. 630
(1977) 105-116. Every step keeps scipy's order of operations, so a fit
stops where scipy's stops: with the same SVD the two agree bit for bit.

Ported from SciPy, which carries this notice:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import numpy as np

from .errors import CalibrationError

EPS = np.finfo(float).eps
TOL = 1e-8  # ftol, xtol and gtol
STEP = EPS**0.5  # relative forward-difference step

# looked up at call time, so that a test can swap in scipy.linalg.svd
svd = np.linalg.svd


def least_squares(fun, x0, lb) -> tuple[np.ndarray, np.ndarray]:
    """Minimise ``0.5 |fun(x)|^2`` subject to ``x >= lb >= 0``.

    Returns the final ``x`` and ``fun(x)``. Raises
    :class:`CalibrationError` when the residuals at the start point or
    the scaled Jacobian are not finite; a trial point with non-finite
    residuals only shrinks the trust region.
    """
    lb = np.asarray(lb, dtype=float)
    with np.errstate(all="ignore"):
        return _trf_bounds(fun, _interior(np.array(x0, dtype=float), lb, 1e-10), lb)


def _norm(x):
    """``numpy.linalg.norm(x)`` of a 1-D array, by numpy's own expression
    for it without the dispatch: the same dot product, a numpy scalar."""
    return np.sqrt(x.dot(x))


def _norm_inf(x):
    """``numpy.linalg.norm(x, ord=np.inf)`` of a 1-D array, likewise."""
    return np.abs(x).max(initial=0.0)


def _trf_bounds(fun, x, lb):
    f = fun(x)
    if not np.isfinite(f).all():
        raise CalibrationError("residuals are not finite at the start point")
    J = _jacobian(fun, x, f)
    m, n = J.shape
    cost = 0.5 * f.dot(f)
    g = J.T.dot(f)
    scale_inv = np.sqrt(np.square(J).sum(axis=0))
    scale_inv[scale_inv == 0] = 1
    scale = 1 / scale_inv
    v, dv = _cl_scaling(x, g, lb)
    np.multiply(v, scale_inv, out=v, where=dv)
    Delta = _norm(x * scale_inv / np.sqrt(v))
    if Delta == 0:
        Delta = 1.0
    nfev, max_nfev = 1, 100 * n
    # [J_h; diag(diag_h)**0.5] and [f; 0], refilled in place: only the
    # top rows and the diagonal below them change between iterations
    f_augmented = np.zeros(m + n)
    J_augmented = np.zeros((m + n, n))
    J_h = J_augmented[:m]
    diag_root = J_augmented[m:].reshape(-1)[:: n + 1]
    alpha = 0.0  # the Levenberg-Marquardt parameter, carried between steps
    done = False
    while True:
        v, dv = _cl_scaling(x, g, lb)
        g_norm = _norm_inf(g * v)
        if done or g_norm < TOL or nfev == max_nfev:
            break
        # "hat" space: Jacobian scaling first, then Coleman-Li scaling
        np.multiply(v, scale_inv, out=v, where=dv)
        d = np.sqrt(v) * scale
        diag_h = g * dv * scale
        g_h = d * g
        f_augmented[:m] = f
        np.multiply(J, d, out=J_h)
        np.sqrt(diag_h, out=diag_root)
        if not np.isfinite(J_augmented).all():
            raise CalibrationError("the scaled Jacobian of the residuals is not finite")
        U, s, V = svd(J_augmented, full_matrices=False)
        V = V.T
        uf = U.T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)  # how far a step stays off the bounds

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, theta
            )
            x_new = _interior(x + step, lb, 0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)
            if not np.isfinite(f_new).all():
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * f_new.dot(f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta,
            )
            ftol_met = actual_reduction < TOL * cost and ratio > 0.25
            done = ftol_met or _norm(step) < TOL * (TOL + _norm(x))
            if done:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            if done:
                break  # scipy also differentiates here; nothing reads it
            J = _jacobian(fun, x, f)
            g = J.T.dot(f)
            scale_inv = np.maximum(np.sqrt(np.square(J).sum(axis=0)), scale_inv)
            scale = 1 / scale_inv
    return x, f


def _jacobian(fun, x, f):
    """Forward differences with step ``sqrt(eps) max(1, |x|)``, divided by
    the step as represented; ``x >= 0``, so no step crosses a bound."""
    h = STEP * np.maximum(1.0, np.abs(x))
    J_transposed = np.empty((x.size, f.size))
    for i, (x_i, h_i) in enumerate(zip(x.tolist(), h.tolist())):
        x1 = x.copy()
        x1[i] = x_i + h_i
        J_transposed[i] = (fun(x1) - f) / ((x_i + h_i) - x_i)
    return J_transposed.T


def _interior(x, lb, rstep):
    """``x``, changed in place, moved off any lower bound it reaches: by
    ``rstep`` relative to the bound, or for ``rstep == 0`` to the next
    float above it."""
    if rstep == 0:
        on = x <= lb
        if on.any():
            x[on] = np.nextafter(lb[on], np.inf)
    else:
        margin = rstep * np.maximum(1, np.abs(lb))
        on = x - lb <= margin
        x[on] = lb[on] + margin[on]
    return x


def _cl_scaling(x, g, lb):
    """Coleman-Li scaling vector ``v`` and its derivative ``dv`` (as a
    mask): the distance to the lower bound where the gradient points at
    it, else 1."""
    dv = g > 0
    return np.where(dv, x - lb, 1.0), dv


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha, rtol=0.01, max_iter=10):
    """Step of norm at most ``Delta`` minimising ``|J p + f|`` from the SVD
    of ``J``, and its Levenberg-Marquardt parameter ``alpha`` (More)."""

    def phi_and_derivative(alpha):
        denom = s_squared + alpha
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -(suf_squared / denom**3).sum() / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0
    s_squared, suf_squared = s**2, suf**2
    alpha_upper = _norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if abs(phi) < rtol * Delta:
            break
    p = -V.dot(suf / (s_squared + alpha))
    p *= Delta / _norm(p)  # onto the boundary, so p never leaves the region
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, theta):
    """The best of the trust-region step cut at the bound, its reflection
    off the bound and the Cauchy step, with its predicted reduction."""
    if (x + p >= lb).all():
        return p, p_h, -_evaluate_quadratic(J_h, g_h, p_h, diag_h)
    p_stride, hits = _step_to_bound(x, p, lb)
    r_h = np.copy(p_h)
    r_h[hits] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    to_tr = _to_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_to_bound(x + p, r, lb)
    # bound the reflected step so that it stays strictly feasible
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _step_to_bound(x, s, lb):
    """Smallest ``t >= 0`` with ``x + t s`` on a lower bound, and which
    components reach it there."""
    steps = np.where(s < 0, (lb - x) / s, np.inf)
    min_step = steps.min()
    return min_step, (steps == min_step) & (s != 0)


def _to_trust_region(x, s, Delta):
    """The positive root ``t`` of ``|x + t s| = Delta``."""
    a = s.dot(s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = x.dot(s)
    c = x.dot(x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    q = -(b + np.copysign(np.sqrt(b * b - a * c), b))  # no cancellation
    return max(q / a, c / q)


def _update_tr_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of ``0.5 (s0 + s t)^T (J^T J + diag) (s0 + s t) +
    g^T (s0 + s t)`` in ``t``: ``a, b`` and, with ``s0``, ``c``."""
    v = J.dot(s)
    a = v.dot(v)
    a += (s * diag).dot(s)
    a *= 0.5
    b = g.dot(s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += u.dot(v)
    c = 0.5 * u.dot(u) + g.dot(s0)
    b += (s0 * diag).dot(s)
    c += 0.5 * (s0 * diag).dot(s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _evaluate_quadratic(J, g, s, diag):
    Js = J.dot(s)
    q = Js.dot(Js)
    q += (s * diag).dot(s)
    return 0.5 * q + s.dot(g)
