"""Independent reference computations for the tests.

Deliberately naive second routes to derived quantities: finite differences
of metric values, dense quadrature, scalar RK4, brute-force polyline
distances, dense-tensor curve fields, a per-node CSV loop, a per-interval
dissipation loop, whole-grid Fourier tables, an exact-rational ETDRK4
series table and a direct-sum trigonometric interpolant. Nothing here shares a code path with the quantities it
checks.
"""

import math
from fractions import Fraction

import numpy as np

import wcsf
from wcsf import spectral

TWO_PI = 2.0 * np.pi


def fd_christoffel(manifold, point, h=1e-4):
    """Christoffel symbols from central differences of the metric alone."""
    d = 2
    base = np.array(point.coords, dtype=float)

    def metric(vec):
        p = wcsf.WarpPoint(vec[0], tuple(vec[1:]))
        return wcsf.metric_at(manifold, p)

    dg = np.zeros((d, d, d))
    for c in range(d):
        ev = np.zeros(d)
        ev[c] = h
        dg[c] = (metric(base + ev) - metric(base - ev)) / (2.0 * h)
    ginv = np.linalg.inv(metric(base))
    gamma = np.zeros((d, d, d))
    for a in range(d):
        for b in range(d):
            for c in range(d):
                s = 0.0
                for l in range(d):
                    s += 0.5 * ginv[a, l] * (dg[b, l, c] + dg[c, l, b]
                                             - dg[l, b, c])
                gamma[a, b, c] = s
    return gamma


def metric_compat_defect(manifold, point, h=1e-4):
    """Max |d_c G_ab - Gamma^d_ca G_db - Gamma^d_cb G_ad| at one point."""
    d = 2
    base = np.array(point.coords, dtype=float)

    def metric(vec):
        p = wcsf.WarpPoint(vec[0], tuple(vec[1:]))
        return wcsf.metric_at(manifold, p)

    g = metric(base)
    gamma = wcsf.christoffel_at(manifold, point)
    worst = 0.0
    for c in range(d):
        ev = np.zeros(d)
        ev[c] = h
        dg = (metric(base + ev) - metric(base - ev)) / (2.0 * h)
        predicted = (np.einsum("da,db->ab", gamma[:, c, :], g)
                     + np.einsum("db,ad->ab", gamma[:, c, :], g))
        worst = max(worst, float(np.abs(dg - predicted).max()))
    return worst


def quadrature_length(kind, warp, f, n=100_000, winding=0):
    """Dense trapezoid length of the closed graph x = f(r) over a flat
    1-dimensional base; warp is a plain callable."""
    u = np.linspace(0.0, TWO_PI, n + 1)
    x = f(u) + winding * u
    fx = f.derivative()(u) + winding
    if kind == wcsf.LEFT:
        speed = np.sqrt(warp(x) ** 2 + fx ** 2)
    else:
        speed = np.sqrt(1.0 + warp(u) ** 2 * fx ** 2)
    return float(np.trapezoid(speed, u))


def scalar_rk4(func, y0, dts):
    """Classical RK4 on a scalar ODE with a prescribed step sequence;
    returns the value after each step, starting with y0."""
    y = float(y0)
    out = [y]
    for dt in dts:
        k1 = func(y)
        k2 = func(y + 0.5 * dt * k1)
        k3 = func(y + 0.5 * dt * k2)
        k4 = func(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def _point_to_polyline(points, poly):
    best = np.full(len(points), np.inf)
    for i in range(len(poly) - 1):
        a, b = poly[i], poly[i + 1]
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            d = np.linalg.norm(points - a, axis=1)
        else:
            t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
            d = np.linalg.norm(points - (a + t[:, None] * ab), axis=1)
        best = np.minimum(best, d)
    return best


def polyline_hausdorff(p_coords, p_winding, q_coords, q_winding):
    """Symmetric Hausdorff distance between two closed lifted curves in the
    (r, x) plane, tiling each by one closure translation either side."""

    def closed_tiles(coords, winding):
        shift = TWO_PI * np.asarray(winding, dtype=float)
        closed = np.vstack([coords, coords[0] + shift])
        return [closed + k * shift for k in (-1, 0, 1)]

    def directed(points, poly_tiles):
        best = np.full(len(points), np.inf)
        for tile in poly_tiles:
            best = np.minimum(best, _point_to_polyline(points, tile))
        return float(best.max())

    return max(directed(p_coords, closed_tiles(q_coords, q_winding)),
               directed(q_coords, closed_tiles(p_coords, p_winding)))


def einsum_fields(curve, manifold):
    """Curve fields from the general tensor formula: dense metric and
    Christoffel tensors from manifold.frame, full einsum contractions, and
    the speed derivative v' by a second spectral differentiation instead
    of the chain rule. Returns a dict keyed like the CurveFields
    attributes."""
    g, gamma = manifold.frame(curve.coords)
    d1, d2 = spectral.diff12(curve.periodic_part())
    gp = d1 + np.asarray(curve.winding, dtype=float)
    v2 = np.einsum("nab,na,nb->n", g, gp, gp)
    v = np.sqrt(v2)
    vp = spectral.diff(v, 1)
    gam2 = np.einsum("nabc,nb,nc->na", gamma, gp, gp)
    accel = (d2 + gam2) / v2[:, None]
    h_pre = accel - gp * (vp / (v2 * v))[:, None]
    t = gp / v[:, None]
    gt = np.einsum("nab,nb->na", g, t)
    pre_tan = np.einsum("na,na->n", gt, h_pre)
    h = h_pre - pre_tan[:, None] * t
    habs = np.sqrt(np.maximum(np.einsum("nab,na,nb->n", g, h, h), 0.0))
    theta = gt[:, 0]
    return {
        "deriv": gp,
        "speed": v,
        "tangent": t,
        "accel": accel,
        "curvature": h,
        "curvature_norm": habs,
        "theta": theta,
        "theta_hat": np.clip(theta / np.sqrt(g[:, 0, 0]), -1.0, 1.0),
        "pre_tangential": pre_tan,
        "length": float(v.sum() * (TWO_PI / curve.m)),
    }


def trajectory_csv_text(traj):
    """trajectory.csv text built whole in memory by a per-node loop over
    repr'd values; the streamed writer must match it byte for byte."""

    def fmt(value):
        return repr(float(value))

    lines = ["t, j, r, x1, theta, theta_hat, curvature"]
    for state in traj:
        coords = np.mod(state.curve.coords, TWO_PI)
        f = state.fields
        t_str = fmt(state.t)
        for j in range(state.curve.m):
            row = [t_str, str(j)]
            row.extend(fmt(c) for c in coords[j])
            row.append(fmt(f.theta[j]))
            row.append(fmt(f.theta_hat[j]))
            row.append(fmt(f.curvature_norm[j]))
            lines.append(", ".join(row))
    return "\n".join(lines) + "\n"


def dissipation_defect_loop(traj):
    """Largest |Delta L / Delta t + mean of int |A|^2 ds| over consecutive
    recorded states, one interval at a time; 0 for a single state."""
    rows = traj.scalars
    defect = 0.0
    for k in range(len(rows) - 1):
        rate = (rows[k + 1, 4] - rows[k, 4]) / (rows[k + 1, 0] - rows[k, 0])
        defect = max(defect, float(abs(
            rate + 0.5 * (rows[k, 5] + rows[k + 1, 5]))))
    return defect


def fourier_full_table(field, x):
    """f(x) from one (x.shape, K) table over every point at once."""
    x = np.asarray(x, dtype=float)
    kx = np.multiply.outer(x, field._k)
    terms = np.cos(kx) * field.cos_coef
    if field._has_sin:
        terms += np.sin(kx) * field.sin_coef
    return terms.sum(axis=-1)


def fourier_full_table_with_derivative(field, x):
    """(f(x), f'(x)) from whole-grid tables, cosine-only series reading
    the cosine table for f and the sine table for f'."""
    x = np.asarray(x, dtype=float)
    kx = x[..., None] * field._k
    if not field._has_sin:
        return ((np.cos(kx) * field.cos_coef).sum(axis=-1),
                (np.sin(kx) * -(field._k * field.cos_coef)).sum(axis=-1))
    c = np.cos(kx)
    s = np.sin(kx)
    return ((c * field.cos_coef + s * field.sin_coef).sum(axis=-1),
            (c * (field._k * field.sin_coef)
             - s * (field._k * field.cos_coef)).sum(axis=-1))


def taylor_table_fraction(terms=24):
    """ETDRK4 series rows (Q, f1, f2, f3 coefficients of z^n over dt) in
    exact rationals, each rounded once to a float."""
    rows = []
    for n in range(terms):
        p1, p2, p3 = (Fraction(1, math.factorial(n + j)) for j in (1, 2, 3))
        rows.append([float(p1 / 2 ** (n + 1)), float(p1 - 3 * p2 + 4 * p3),
                     float(p2 - 2 * p3), float(4 * p3 - p2)])
    return np.array(rows)



def graph_twin_gap(graph_curve, param_curve):
    """Largest |x_p - f_g(r_p)| over the parametric nodes (r_p, x_p), with
    f_g the trigonometric interpolant of the graph curve's x values,
    summed mode by mode from a direct DFT of its periodic part."""
    m = graph_curve.m
    wx = graph_curve.winding[1]
    u = TWO_PI * np.arange(m) / m
    k = np.arange(m // 2 + 1)
    coef = np.exp(-1j * np.outer(k, u)) @ (graph_curve.coords[:, 1] - wx * u)
    coef[1:m // 2] *= 2.0   # each interior mode stands for its +/- pair
    r, x = param_curve.coords[:, 0], param_curve.coords[:, 1]
    f = (np.exp(1j * np.outer(r, k)) @ coef).real / m + wx * r
    return float(np.abs(x - f).max())
