"""Independent reference computations for the tests.

Deliberately naive second routes to derived quantities: finite differences
of metric values, the closed-form identities of nabla d_r and of the
conformal field phi d_r from dense Christoffel tensors, dense quadrature,
a Clairaut geodesic by bisection, scalar RK4, brute-force polyline
distances, dense-tensor curve fields, a per-node CSV loop, the chart's
snapshot rule, the chart text joined in memory, whole-grid Fourier
tables, an exact-rational ETDRK4 series table, trigonometric resampling,
a direct-sum trigonometric interpolant, and the angle's and the length's
rates along the flow by a central difference in the node velocity.
Nothing here shares a code path with the quantities it checks, but for
the per-state drift check, which shares the Laplacian and the constants
it sums.
"""

import math
from fractions import Fraction

import numpy as np

import wcsf
from wcsf import spectral
from wcsf.artifacts import _MARG, _PANE_W, _SNAPSHOTS, _SVG_H, _SVG_W
from wcsf.curves import _validate_m
from wcsf.identities import BoundConstants
from wcsf.record import MIN_THETA, MIN_THETA_HAT, TIME

TWO_PI = 2.0 * np.pi


def _metric(manifold, vec):
    """The (2, 2) metric at the point vec = (r, x)."""
    return manifold.frame(np.asarray(vec, dtype=float)[None, :])[0][0]


def fd_christoffel(manifold, point, h=1e-4):
    """Christoffel symbols at point = (r, x) from central differences of
    the metric alone."""
    d = 2
    base = np.array(point, dtype=float)
    dg = np.zeros((d, d, d))
    for c in range(d):
        ev = np.zeros(d)
        ev[c] = h
        dg[c] = (_metric(manifold, base + ev)
                 - _metric(manifold, base - ev)) / (2.0 * h)
    ginv = np.linalg.inv(_metric(manifold, base))
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
    """Max |d_c G_ab - Gamma^d_ca G_db - Gamma^d_cb G_ad| at one point
    (r, x)."""
    d = 2
    base = np.array(point, dtype=float)
    g = _metric(manifold, base)
    gamma = manifold.frame(base[None, :])[1][0]
    worst = 0.0
    for c in range(d):
        ev = np.zeros(d)
        ev[c] = h
        dg = (_metric(manifold, base + ev)
              - _metric(manifold, base - ev)) / (2.0 * h)
        predicted = (np.einsum("da,db->ab", gamma[:, c, :], g)
                     + np.einsum("db,ad->ab", gamma[:, c, :], g))
        worst = max(worst, float(np.abs(dg - predicted).max()))
    return worst


def _node_arrays(pts, *vectors) -> tuple:
    """pts and each vector field as float arrays of shape (N, 2); vector
    components must be finite."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (N, 2)")
    out = [pts]
    for v in vectors:
        v = np.asarray(v, dtype=float)
        if v.shape != pts.shape:
            raise ValueError("vectors must have the points' shape (N, 2)")
        if not np.isfinite(v).all():
            raise ValueError("tangent vector components must be finite")
        out.append(v)
    return tuple(out)


def _inner(metric, u, v) -> np.ndarray:
    return np.einsum("na,nab,nb->n", u, metric, v)


def dr_identity_residual(manifold, pts, X, Y) -> np.ndarray:
    """Defect of the structural identity for nabla_X d_r at every point,
    with pts, X and Y of shape (N, 2):

    Left:  <Y, nabla_X d_r> = <X, D log psi><Y, d_r> - <X, d_r><Y, D log psi>
    Right: <Y, nabla_X d_r> = (log phi)'(r) (<X, Y> - <X, d_r><Y, d_r>)
    """
    pts, x, y = _node_arrays(pts, X, Y)
    g, gamma = manifold.frame(pts)
    # components of nabla_X d_r are Gamma^a_{b0} X^b
    lhs = _inner(g, y, np.einsum("nab,nb->na", gamma[..., 0], x))
    x_r = np.einsum("nb,nb->n", g[:, 0], x)     # <X, d_r>
    y_r = np.einsum("nb,nb->n", g[:, 0], y)
    if manifold.kind == wcsf.LEFT:
        grad = np.zeros_like(x)                 # D log psi
        grad[:, 1] = manifold.dlog_warp(pts[:, 1])[0]
        rhs = _inner(g, x, grad) * y_r - x_r * _inner(g, y, grad)
    else:
        d1, _ = manifold.log_warp_derivs(pts[:, 0])
        rhs = d1 * (_inner(g, x, y) - x_r * y_r)
    return np.abs(lhs - rhs)


def conformal_residual(manifold, pts, X) -> np.ndarray:
    """Defect of nabla_X (phi d_r) = phi'(r) X at every point, the
    component-wise maximum, with pts and X of shape (N, 2).

    Only right warped products carry this conformal field; left manifolds
    are rejected.
    """
    if manifold.kind != wcsf.RIGHT:
        raise ValueError("conformal_residual requires a right warped product")
    pts, x = _node_arrays(pts, X)
    _, gamma = manifold.frame(pts)
    phi, dphi = manifold.warp.values_with_derivative(pts[:, 0])
    # nabla_X (phi d_r) = X(phi) d_r + phi Gamma(X, d_r)
    nabla = phi[:, None] * np.einsum("nab,nb->na", gamma[..., 0], x)
    nabla[:, 0] += x[:, 0] * dphi
    return np.abs(nabla - dphi[:, None] * x).max(axis=1)


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


def clairaut_length(kind, warp, w, n=2 ** 16):
    """(c, L) for the closed geodesic of class (1, w), w != 0, over a flat
    base: Clairaut's constant c and the length L. warp is a plain callable.

    Left, psi(x)^2 dr^2 + dx^2: psi^2 dr/ds = c along a geodesic, which
    closes iff int_0^2pi c dx / (psi sqrt(psi^2 - c^2)) = 2 pi / |w|, and
    L = |w| int_0^2pi psi dx / sqrt(psi^2 - c^2).
    Right, dr^2 + phi(r)^2 dx^2: phi^2 dx/ds = c, the geodesic closes iff
    int_0^2pi c dr / (phi sqrt(phi^2 - c^2)) = 2 pi |w|, and
    L = int_0^2pi phi dr / sqrt(phi^2 - c^2).
    The closing integral grows from 0 to infinity as c runs over
    (0, min warp), so bisection finds the one c; every integral is an
    n-point trapezoid sum over the period.
    """
    s = np.asarray(warp(TWO_PI * np.arange(n) / n), dtype=float)
    target = TWO_PI / abs(w) if kind == wcsf.LEFT else TWO_PI * abs(w)

    def integral(values):
        return float(values.sum()) * TWO_PI / n

    lo, hi = 0.0, float(s.min())
    c = 0.5 * (lo + hi)
    while lo < c < hi:
        if integral(c / (s * np.sqrt(s * s - c * c))) < target:
            lo = c
        else:
            hi = c
        c = 0.5 * (lo + hi)
    length = integral(s / np.sqrt(s * s - c * c))
    return c, (abs(w) * length if kind == wcsf.LEFT else length)


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
    attributes, and pre_tangential, the tangential part <h, T>_G of the
    curvature before its projection, analytically zero."""
    g, gamma = manifold.frame(curve.coords)
    d1, d2 = spectral.diff12(curve.periodic_part())
    gp = d1 + np.asarray(curve.winding, dtype=float)
    v2 = np.einsum("nab,na,nb->n", g, gp, gp)
    v = np.sqrt(v2)
    vp = spectral.diff(v)
    gam2 = np.einsum("nabc,nb,nc->na", gamma, gp, gp)
    accel = (d2 + gam2) / v2[:, None]
    h_pre = accel - gp * (vp / (v2 * v))[:, None]
    t = gp / v[:, None]
    gt = np.einsum("nab,nb->na", g, t)
    pre_tan = np.einsum("na,na->n", gt, h_pre)
    h = h_pre - pre_tan[:, None] * t
    # the gauge's node velocity: H - H^0 gamma' on a graph, whose r
    # component vanishes since r' = 1; the DeTurck q/v^2 otherwise
    velocity = h - h[:, :1] * gp if curve.mode == "graph" else accel
    habs = np.sqrt(np.maximum(np.einsum("nab,na,nb->n", g, h, h), 0.0))
    theta = gt[:, 0]
    return {
        "deriv": gp,
        "speed": v,
        "tangent": t,
        "velocity": velocity,
        "curvature": h,
        "curvature_norm": habs,
        "theta": theta,
        "theta_hat": np.clip(theta / np.sqrt(g[:, 0, 0]), -1.0, 1.0),
        "pre_tangential": pre_tan,
        "length": float(v.sum() * (TWO_PI / curve.m)),
    }


def tangential_part(curve, fields):
    """<H, T>_G at the nodes, analytically zero: the dense metric of
    fields.manifold.frame contracted with the curvature and the tangent."""
    metric, _ = fields.manifold.frame(curve.coords)
    return np.einsum("nab,na,nb->n", metric, fields.curvature, fields.tangent)


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
            # np.mod gives 2 pi for an angle just below 0; it is 0
            row.extend(fmt(0.0 if c == TWO_PI else c) for c in coords[j])
            row.append(fmt(f.theta[j]))
            row.append(fmt(f.theta_hat[j]))
            row.append(fmt(f.curvature_norm[j]))
            lines.append(", ".join(row))
    return "\n".join(lines) + "\n"


def svg_snapshot_indices(n, snapshots=16):
    """The states a chart of n recorded states draws when every curve is
    kept: up to `snapshots` of them at i (n - 1) / (k - 1), each rounded
    half to even in exact rational arithmetic, repeats dropped."""
    k = min(snapshots, n)
    picked = []
    for i in range(k):
        j = round(Fraction(i * (n - 1), max(k - 1, 1)))
        if j not in picked:
            picked.append(j)
    return picked


def _chart_scale(values, lo_px, hi_px):
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    if vmax - vmin < 1e-12:
        vmax = vmin + 1.0
    pad = 0.05 * (vmax - vmin)
    vmin -= pad
    vmax += pad
    span = vmax - vmin

    def to_px(v):
        return (lo_px
                + (np.asarray(v, dtype=float) - vmin) / span * (hi_px - lo_px))

    return to_px, vmin, vmax


def _chart_polyline(xs, ys, stroke, width="1.2", dash=None) -> str:
    pts = " ".join(f"{x:.6f},{y:.6f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}"'
            f'{extra} points="{pts}" />')


def chart_text(traj):
    """The whole text of traj's chart.svg, built as a list of elements and
    joined in memory: the chart writer before it wrote each element as it
    was formatted, kept as the byte-for-byte reference."""
    kept = traj.kept()
    k = min(_SNAPSHOTS, len(kept))
    step = (len(kept) - 1) / max(k - 1, 1)
    snaps = [traj.curve(kept[p])
             for p in dict.fromkeys(round(i * step) for i in range(k))]

    left_x0, left_x1 = _MARG, _MARG + _PANE_W
    right_x0, right_x1 = _MARG + _PANE_W + 2 * _MARG, _SVG_W - 30.0
    y0, y1 = _SVG_H - _MARG, _MARG - 15.0

    closed = [np.vstack((c.coords,
                         c.coords[0] + TWO_PI * np.asarray(c.winding)))
              for c in snaps]
    rx, _, _ = _chart_scale(np.concatenate([p[:, 0] for p in closed]),
                            left_x0, left_x1)
    xy, xmin, xmax = _chart_scale(np.concatenate([p[:, 1] for p in closed]),
                                  y0, y1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W:.0f}" '
        f'height="{_SVG_H:.0f}" viewBox="0 0 {_SVG_W:.0f} {_SVG_H:.0f}">',
        f'<rect width="{_SVG_W:.0f}" height="{_SVG_H:.0f}" fill="white" />',
        f'<text x="{left_x0:.1f}" y="30" font-family="monospace" '
        f'font-size="14">curve snapshots (r, x1), lifted</text>',
        f'<text x="{right_x0:.1f}" y="30" font-family="monospace" '
        f'font-size="14">min angle vs t</text>',
    ]
    for k, p in enumerate(closed):
        shade = 0.85 - 0.7 * (k / max(len(closed) - 1, 1))
        color = f"rgb({int(60 + 150 * shade)},{int(60 + 100 * shade)},200)"
        parts.append(_chart_polyline(rx(p[:, 0]), xy(p[:, 1]), color))
    parts.append(_chart_polyline([left_x0, left_x0, left_x1], [y1, y0, y0],
                                 "black", "1.0"))
    parts.append(f'<text x="{left_x0:.1f}" y="{y0 + 32:.1f}" '
                 f'font-family="monospace" font-size="11">r in [0, 2pi]   '
                 f'x1 in [{xmin:.3f}, {xmax:.3f}]</text>')

    scalars = traj.scalars[:, [TIME, MIN_THETA, MIN_THETA_HAT]]
    times, min_theta, min_hat = scalars.T
    tx, _, _ = _chart_scale(times, right_x0, right_x1)
    vy, vmin, vmax = _chart_scale(np.concatenate([min_theta, min_hat, [0.0]]),
                                  y0, y1)
    parts.append(_chart_polyline(tx(times), vy(min_theta), "rgb(200,80,60)",
                                 "1.5"))
    parts.append(_chart_polyline(tx(times), vy(min_hat), "rgb(60,120,200)",
                                 "1.5"))
    parts.append(_chart_polyline([tx(times[0]), tx(times[-1])],
                                 [vy(0.0), vy(0.0)], "gray", "0.8",
                                 dash="4 3"))
    parts.append(_chart_polyline([right_x0, right_x0, right_x1], [y1, y0, y0],
                                 "black", "1.0"))
    parts.append(f'<text x="{right_x0:.1f}" y="{y0 + 32:.1f}" '
                 f'font-family="monospace" font-size="11">t in '
                 f'[{times[0]:.3f}, {times[-1]:.3f}]   red: min theta   '
                 f'blue: min theta-hat   range [{vmin:.3f}, {vmax:.3f}]</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def length_dt_fd(state, eps=1e-6):
    """dL/dt of state: the lengths of the curves gamma +- eps W, W the node
    velocity, centrally differenced."""
    f, curve = state.fields, state.curve
    lengths = [wcsf.compute_fields(
        wcsf.DiscreteCurve(curve.mode, curve.coords + sign * eps * f.velocity,
                           curve.winding), f.manifold).length
        for sign in (1.0, -1.0)]
    return (lengths[0] - lengths[1]) / (2.0 * eps)


def theta_dt_fd(state, eps=1e-6):
    """The material dTheta/dt at the nodes of state: the angle of the
    curves gamma +- eps W, W the node velocity, centrally differenced,
    minus the slide rho d_u Theta, rho = <W - H, gamma'> / <gamma', gamma'>
    in Euclidean dot products."""
    f, curve = state.fields, state.curve
    theta = []
    for sign in (1.0, -1.0):
        moved = wcsf.DiscreteCurve(curve.mode,
                                   curve.coords + sign * eps * f.velocity,
                                   curve.winding)
        theta.append(wcsf.compute_fields(moved, f.manifold).theta)
    rho = (np.einsum("na,na->n", f.velocity - f.curvature, f.deriv)
           / np.einsum("na,na->n", f.deriv, f.deriv))
    return (theta[0] - theta[1]) / (2.0 * eps) - rho * spectral.diff(f.theta)


def drift_worst(traj):
    """The least drift slack over a trajectory's states, taken per state:
    dTheta/dt by theta_dt_fd, the slack summed node by node with C_drift
    before the minimum. Every state of traj must be kept."""
    consts = BoundConstants(traj.final.fields.manifold,
                            float(traj.scalars[0, MIN_THETA]))
    worst = math.inf
    for state in traj:
        f = state.fields
        slack = (theta_dt_fd(state) - wcsf.arc_laplacian(f.theta, f.speed)
                 - 0.5 * f.curvature_norm ** 2 * f.theta
                 + consts.constant(state.t))
        worst = min(worst, float(slack.min()))
    return worst


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


def resample_periodic(values, m_new):
    """Trigonometric interpolation onto m_new uniform nodes (axis 0).

    Exact for data bandlimited below the coarser grid's Nyquist mode. The
    coarser grid's Nyquist bin is unpaired: up-sampling splits it evenly
    between the new +/- pair, down-sampling folds the pair into it.
    """
    values = np.asarray(values, dtype=float)
    m, m_new = values.shape[0], int(m_new)
    keep = min(m, m_new)
    spec = np.fft.rfft(values, axis=0)[: keep // 2 + 1]
    if m_new != m and keep % 2 == 0:
        spec[keep // 2] *= 2.0 if m_new < m else 0.5
    return np.fft.irfft(spec * (m_new / m), n=m_new, axis=0)


def resample(curve, m_new):
    """Trigonometric interpolation of a curve onto m_new nodes in its gauge:
    a graph's periodic r is zero, so its r column is the new node grid."""
    m_new = _validate_m(m_new)
    p_new = resample_periodic(curve.periodic_part(), m_new)
    u_new = spectral.nodes(m_new)
    coords = p_new + u_new[:, None] * np.asarray(curve.winding, dtype=float)
    return wcsf.DiscreteCurve(curve.mode, coords, curve.winding)


def graph_twin_gap(graph_curve, param_curve):
    """Largest |x_p - f_g(r_p)| over the parametric nodes (r_p, x_p), with
    f_g the trigonometric interpolant of the graph curve's x values,
    summed mode by mode from a direct DFT of them (a graph never winds
    in x)."""
    m = graph_curve.m
    u = TWO_PI * np.arange(m) / m
    k = np.arange(m // 2 + 1)
    coef = np.exp(-1j * np.outer(k, u)) @ graph_curve.coords[:, 1]
    coef[1:m // 2] *= 2.0   # each interior mode stands for its +/- pair
    r, x = param_curve.coords[:, 0], param_curve.coords[:, 1]
    f = (np.exp(1j * np.outer(r, k)) @ coef).real / m
    return float(np.abs(x - f).max())
