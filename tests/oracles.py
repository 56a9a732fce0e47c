"""Independent reference implementations used to check the fast paths.

Each oracle deliberately avoids the code path it validates: the etch
oracle integrates the front ODE with plain explicit Euler, the plate
oracle is a polynomial Rayleigh-Ritz energy minimization (no finite
differences), the plate-operator oracle assembles the 13-point stencil
node by node with mirror ghosts (the program solves in a sine basis),
the stress oracle differences the whole field (the program reads the
moment from the clamped edges only), the residue oracle is brute
trapezoid quadrature, the coverage oracle rasterises every hole at
every point, and the release-time oracle bisects on that dense coverage
at every step (the program bisects on an arrival-time estimate and asks
its windowed raster only at the end).

``closed_form_underetch`` is the exception: the program itself evaluates
the quadratic first integral of the front law, so that oracle restates
the program's own algebra and checks only its arithmetic.
``euler_underetch`` is the independent check of the front model.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial
from scipy import sparse

from zeropack.geometry import hole_area
from zeropack.release import TIME_TOLERANCE, underetch
from zeropack.units import MINUTE


def euler_underetch(hole, stack, params, duration, step=0.001 * MINUTE):
    """Explicit fine-step Euler integration of the front ODE."""
    h_s = stack.sacrificial_thickness
    feed = params.aperture_factor * h_s / hole_area(hole)
    u = 0.0
    t = 0.0
    while t < duration - 1e-12:
        h = min(step, duration - t)
        u += h * params.intrinsic_rate / (1.0 + feed + params.channel_factor * u / h_s)
        t += h
    return u


def closed_form_underetch(hole, stack, params, duration):
    """Exact solution of the front ODE via its quadratic first integral:
    (1 + a) U + (c/h_s) U^2 / 2 = R0 t."""
    h_s = stack.sacrificial_thickness
    a = params.aperture_factor * h_s / hole_area(hole)
    b = params.channel_factor / h_s
    rhs = params.intrinsic_rate * duration
    if b == 0.0:
        return rhs / (1.0 + a)
    return (-(1.0 + a) + math.sqrt((1.0 + a) ** 2 + 2.0 * b * rhs)) / b


def residue_quadrature(hole, cap_thickness, deposited, material, params, n=200_001):
    """Trapezoid integration of the residue accumulation model."""
    from zeropack.clogging import closure_rate

    a0 = hole.width
    rate = closure_rate(a0, cap_thickness, material, params)
    xs = np.linspace(0.0, deposited, n)
    a = np.maximum(0.0, a0 - rate * xs)
    f = params.floor_attenuation
    atten = np.minimum(1.0, f + (1.0 - f) * (a / cap_thickness) / params.knee_ratio)
    integrand = np.where(a > 0.0, (a / a0) * atten, 0.0)
    return params.residue_fraction * float(np.trapezoid(integrand, xs))


def ritz_clamped_square(n_terms=8):
    """Clamped square plate under uniform load by polynomial Rayleigh-Ritz.

    Basis (xi^2-1)^2 xi^(2i) per axis on [-1, 1]^2 (clamped conditions
    built in, even symmetry); energy integrals are exact polynomial
    integrals. Returns (center deflection coefficient alpha, edge moment
    coefficient beta) for w = alpha q a^4 / D and M_edge = beta q a^2.
    """
    half = 0.5  # half-span of a unit plate
    base = []
    for i in range(n_terms):
        g = Polynomial([-1.0, 0.0, 1.0]) ** 2 * Polynomial([0.0, 1.0]) ** (2 * i)
        base.append(g)

    def integral(p: Polynomial) -> float:
        q = p.integ()
        return q(1.0) - q(-1.0)

    n = len(base)
    s0 = np.empty((n, n))  # u_i u_k
    s2 = np.empty((n, n))  # u_i'' u_k''
    s1 = np.empty((n, n))  # u_i'' u_k
    for i in range(n):
        for k in range(n):
            s0[i, k] = integral(base[i] * base[k])
            s2[i, k] = integral(base[i].deriv(2) * base[k].deriv(2))
            s1[i, k] = integral(base[i].deriv(2) * base[k])
    load1 = np.array([integral(b) for b in base])

    # x-direction scales by half, second derivatives by 1/half^2
    a0 = half * s0
    a2 = s2 / half**3
    a1 = s1 / half
    k_mat = np.einsum("ik,jl->ijkl", a2, a0) + np.einsum("ik,jl->ijkl", a0, a2)
    k_mat += 2.0 * np.einsum("ik,jl->ijkl", a1, a1)
    k_mat = k_mat.reshape(n * n, n * n)
    f_vec = np.outer(half * load1, half * load1).reshape(n * n)

    c = np.linalg.solve(k_mat, f_vec).reshape(n, n)
    u_at_0 = np.array([b(0.0) for b in base])
    w_center = u_at_0 @ c @ u_at_0
    # w_xx at the mid-edge: u_i''(1) = 8 for every basis term
    wxx_edge = (8.0 / half**2) * float(np.sum(c @ u_at_0))
    return float(w_center), float(-wxx_edge)


def stencil_plate_operator(side_a, side_b, n):
    """The clamped-plate biharmonic on the interior nodes of an n x n cell
    grid (x index fastest), assembled from the explicit 13-point stencil.
    A stencil point on the edge drops out (w = 0 there); one beyond the
    edge is mirrored back onto the first interior line (w_-1 = w_1)."""
    hx = side_a / n
    hy = side_b / n
    m = n - 1
    cx = 1.0 / hx**4
    cy = 1.0 / hy**4
    cxy = 2.0 / (hx**2 * hy**2)
    stencil = [
        (0, 0, 6.0 * cx + 6.0 * cy + 4.0 * cxy),
        (-1, 0, -4.0 * cx - 2.0 * cxy),
        (1, 0, -4.0 * cx - 2.0 * cxy),
        (0, -1, -4.0 * cy - 2.0 * cxy),
        (0, 1, -4.0 * cy - 2.0 * cxy),
        (-1, -1, cxy),
        (-1, 1, cxy),
        (1, -1, cxy),
        (1, 1, cxy),
        (-2, 0, cx),
        (2, 0, cx),
        (0, -2, cy),
        (0, 2, cy),
    ]

    def mirror(k):
        return 1 if k == -1 else n - 1 if k == n + 1 else k

    entries = {}
    for j in range(1, n):
        for i in range(1, n):
            row = (j - 1) * m + (i - 1)
            for di, dj, c in stencil:
                it, jt = mirror(i + di), mirror(j + dj)
                if 1 <= it <= n - 1 and 1 <= jt <= n - 1:
                    col = (jt - 1) * m + (it - 1)
                    entries[row, col] = entries.get((row, col), 0.0) + c
    rows, cols = zip(*entries)
    return sparse.csr_matrix((list(entries.values()), (rows, cols)), shape=(m * m, m * m))


def edge_row_curvatures(w, hx, hy):
    """Second differences of a clamped field: centred in the interior and
    ``2 w_1 / h^2`` on each edge line, from the mirror ghost ``w_-1 = w_1``
    and ``w_0 = 0``."""
    wxx = np.zeros_like(w)
    wyy = np.zeros_like(w)
    wxx[:, 1:-1] = (w[:, :-2] - 2.0 * w[:, 1:-1] + w[:, 2:]) / hx**2
    wxx[:, 0] = 2.0 * w[:, 1] / hx**2
    wxx[:, -1] = 2.0 * w[:, -2] / hx**2
    wyy[1:-1, :] = (w[:-2, :] - 2.0 * w[1:-1, :] + w[2:, :]) / hy**2
    wyy[0, :] = 2.0 * w[1, :] / hy**2
    wyy[-1, :] = 2.0 * w[-2, :] / hy**2
    return wxx, wyy


def moment_peak(w, hx, hy, nu):
    """``max(|w_xx + nu w_yy|, |w_yy + nu w_xx|)`` over every node of a
    clamped field, with the curvatures of ``edge_row_curvatures``."""
    wxx, wyy = edge_row_curvatures(w, hx, hy)
    return float(max(np.abs(wxx + nu * wyy).max(), np.abs(wyy + nu * wxx).max()))


def peak_stress(spec, w, grid_n):
    """Largest bending stress of the deflection field ``w`` of a clamped
    plate on a ``grid_n`` cell grid, from the documented formula:
    ``D = E t^3 / (12 (1 - nu^2))`` and
    ``sigma = 6 max(|D (w_xx + nu w_yy)|, |D (w_yy + nu w_xx)|) / t^2``
    over every node of the field."""
    nu = spec.material.poisson_ratio
    t = spec.thickness
    d = spec.material.youngs_modulus * t**3 / (12.0 * (1.0 - nu**2))
    # |D z| = D |z| and rounding is monotone, so D max|z| is max|D z|
    moment = d * moment_peak(w, spec.side_a / grid_n, spec.side_b / grid_n, nu)
    return 6.0 * moment / t**2


def _dilated_distance(hole, cx, cy, reach, x, y):
    """Signed distance from points to a hole centred at ``(cx, cy)`` and
    dilated by ``reach``; the hole is read through its fields only."""
    dx = x - cx
    dy = y - cy
    if hole.shape == "circle":
        return np.hypot(dx, dy) - (0.5 * hole.width + reach)
    qx = np.abs(dx) - 0.5 * hole.width
    qy = np.abs(dy) - 0.5 * hole.length
    outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
    inside = np.minimum(np.maximum(qx, qy), 0.0)
    return outside + inside - reach


def dense_release_coverage(footprint, holes, underetch, pitch):
    """Release coverage by brute rasterisation: every hole is tested at
    every cell centre, and every hole at every subsample point of each
    cell the fronts cross (``|distance|`` under a half-diagonal).

    Follows the documented rasterisation of ``release_coverage`` with no
    windowing or early exit, so the two agree bit for bit."""
    if not holes:
        return 0.0
    nx = max(1, math.ceil(footprint.width / pitch))
    ny = max(1, math.ceil(footprint.length / pitch))
    px = footprint.width / nx
    py = footprint.length / ny
    x0 = footprint.center[0] - 0.5 * footprint.width
    y0 = footprint.center[1] - 0.5 * footprint.length
    gx, gy = np.meshgrid((np.arange(nx) + 0.5) * px, (np.arange(ny) + 0.5) * py)

    def union_distance(x, y):
        return np.min(
            [
                _dilated_distance(h, h.center[0] - x0, h.center[1] - y0, u, x, y)
                for h, u in zip(holes, underetch)
            ],
            axis=0,
        )

    dist = union_distance(gx, gy)
    half_diag = 0.5 * math.hypot(px, py)
    cells = np.where(dist <= -half_diag, 1.0, 0.0)
    edge = np.abs(dist) < half_diag
    if np.any(edge):
        subsample = 16
        offsets = (np.arange(subsample) + 0.5) / subsample - 0.5
        ox, oy = (o.ravel() for o in np.meshgrid(offsets, offsets))
        sx = gx[edge][:, None] + ox * px
        sy = gy[edge][:, None] + oy * py
        ramp = 0.5 * (px + py) / subsample
        weight = np.clip(0.5 - union_distance(sx, sy) / ramp, 0.0, 1.0)
        cells[edge] = weight.mean(axis=1)
    return float(cells.mean())


def scan_release_time(footprint, holes, stack, params, pitch, step=0.01 * MINUTE, cap=150 * MINUTE):
    """First multiple of ``step`` at which coverage hits 1, using the
    closed-form front solution and the dense coverage oracle.

    Walks 1-minute steps to the last uncovered whole minute, then
    ``step``s from there. The shortcut relies on coverage being monotone
    in time: no multiple of ``step`` below an uncovered time is covered."""

    def covered(t):
        u = [closed_form_underetch(h, stack, params, t) for h in holes]
        return dense_release_coverage(footprint, holes, u, pitch) >= 1.0

    stride = round(MINUTE / step)
    k = 0
    while (k + stride) * step <= cap and not covered((k + stride) * step):
        k += stride
    while k * step <= cap:
        if covered(k * step):
            return k * step
        k += 1
    raise AssertionError("release scan exceeded cap")


def bisect_release_time(footprint, holes, stack, params, pitch, max_time):
    """Left end of the final bracket of the release search, or None when
    the layout has not released by ``max_time``: doubling from 1 min, then
    halving to ``TIME_TOLERANCE`` (or to two adjacent floats), with every
    step asking the dense coverage oracle. The fronts come from the
    program's ``underetch``, checked against Euler integration elsewhere,
    so that both searches see the same fronts bit for bit."""

    def covered(t):
        u = [underetch(h, stack, params, t) for h in holes]
        return dense_release_coverage(footprint, holes, u, pitch) >= 1.0

    if covered(0.0):
        return 0.0
    lo, t = 0.0, min(MINUTE, max_time)
    while not covered(t):
        if t >= max_time:
            return None
        lo, t = t, min(2.0 * t, max_time)
    hi = t
    while hi - lo > TIME_TOLERANCE and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if covered(mid):
            hi = mid
        else:
            lo = mid
    return lo
